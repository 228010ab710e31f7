//! Unit constants and human-readable formatting.
//!
//! Base units across the workspace: cores, bytes, bytes/second. These
//! helpers keep call sites legible (`32.0 * units::GB`, `units::gbps(1.0)`).

use crate::Resource;

/// One kilobyte (10^3 bytes). Decimal units, matching disk/NIC marketing
/// figures used in the paper's machine profiles.
pub const KB: f64 = 1e3;
/// One megabyte (10^6 bytes).
pub const MB: f64 = 1e6;
/// One gigabyte (10^9 bytes).
pub const GB: f64 = 1e9;
/// One terabyte (10^12 bytes).
pub const TB: f64 = 1e12;

/// Convert a link speed in gigabits/second to bytes/second.
#[inline]
pub fn gbps(g: f64) -> f64 {
    g * 1e9 / 8.0
}

/// Format a byte count with a binary-friendly decimal suffix.
pub fn human_bytes(b: f64) -> String {
    let (v, suffix) = scale(b);
    format!("{v:.3}{suffix}B")
}

/// Format a rate in bytes/second.
pub fn human_rate(r: f64) -> String {
    let (v, suffix) = scale(r);
    format!("{v:.3}{suffix}B/s")
}

fn scale(x: f64) -> (f64, &'static str) {
    let a = x.abs();
    if a >= TB {
        (x / TB, "T")
    } else if a >= GB {
        (x / GB, "G")
    } else if a >= MB {
        (x / MB, "M")
    } else if a >= KB {
        (x / KB, "K")
    } else {
        (x, "")
    }
}

/// Format a quantity of resource `r` in its natural unit.
pub fn human(r: Resource, v: f64) -> String {
    match r {
        Resource::Cpu => format!("{v:.2}c"),
        Resource::Mem => human_bytes(v),
        _ => human_rate(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_speed_conversions() {
        assert_eq!(gbps(1.0), 125e6);
    }

    #[test]
    fn humanize_bytes() {
        assert_eq!(human_bytes(2.0 * GB), "2.000GB");
        assert_eq!(human_bytes(512.0), "512.000B");
        assert_eq!(human_bytes(3.5 * TB), "3.500TB");
    }

    #[test]
    fn humanize_rate() {
        assert_eq!(human_rate(50.0 * MB), "50.000MB/s");
    }

    #[test]
    fn humanize_per_resource() {
        assert_eq!(human(Resource::Cpu, 2.0), "2.00c");
        assert_eq!(human(Resource::Mem, GB), "1.000GB");
        assert!(human(Resource::NetIn, 125e6).ends_with("B/s"));
    }
}
