//! Byte-size and bandwidth units shared across the workspace.
//!
//! The paper reports bandwidth in MB/s (decimal) and file sizes in KB/MB/GB;
//! we keep the same convention: `KB = 1000` for reporting, but the file
//! system's stripe size uses binary KiB (512 KiB) as memcached-style stores
//! traditionally do. Both families of constants are provided and explicitly
//! named to avoid ambiguity.

/// 1 decimal kilobyte (10^3 bytes) — used for paper-facing reporting.
pub const KB: u64 = 1_000;
/// 1 decimal megabyte (10^6 bytes).
pub const MB: u64 = 1_000_000;
/// 1 decimal gigabyte (10^9 bytes).
pub const GB: u64 = 1_000_000_000;

/// 1 binary mebibyte (2^20 bytes) — used for stripe/buffer sizes.
pub const MIB: u64 = 1 << 20;
/// 1 binary gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;

/// Bandwidth in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Bytes per second.
    #[inline]
    pub fn bytes_per_s(self) -> f64 {
        self.0
    }

    /// Megabytes (decimal) per second, for paper-style reporting.
    #[inline]
    pub fn mb_per_s(self) -> f64 {
        self.0 / MB as f64
    }
}

/// Render a byte count with a human-friendly decimal suffix ("4.9 GB").
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= GB {
        format!("{:.1} GB", b / GB as f64)
    } else if bytes >= MB {
        format!("{:.1} MB", b / MB as f64)
    } else if bytes >= KB {
        format!("{:.1} KB", b / KB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth(1.25e9);
        assert_eq!(b.bytes_per_s(), 1.25e9);
        assert!((b.mb_per_s() - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4_900_000_000), "4.9 GB");
        assert_eq!(fmt_bytes(1_500_000), "1.5 MB");
        assert_eq!(fmt_bytes(2_000), "2.0 KB");
    }

    #[test]
    fn binary_and_decimal_units_differ() {
        assert_eq!(MIB, 1 << 20);
        assert_eq!(MB, 1_000_000);
    }
}
