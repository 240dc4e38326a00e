//! MemFS' key naming schema over the key-value store.
//!
//! From the paper:
//!
//! * stripes — "we use the name of the file concatenated with the stripe
//!   number as key for the hash" (§3.1.2); here the file's *generation*
//!   follows them (`s:<path>#<index>@<generation>`), so each incarnation
//!   of a path has keys of its own;
//! * file metadata — "a special key containing the file name" whose value
//!   is empty until close and then holds the file size (§3.2.4); here it
//!   also names the generation whose stripes hold the bytes;
//! * directory metadata — "a Memcached key using the directory name" whose
//!   value is an appended log of child names, with deletions recorded as
//!   tombstone entries (§3.2.4).
//!
//! The three namespaces are prefixed (`s:`, `f:`, `d:`) so a file named
//! like a directory cannot collide, and so diagnostic tools can classify
//! keys.
//!
//! Placement hashes a stripe key *without* its generation suffix
//! ([`KeySchema::placement`], a prefix of the key): every incarnation of
//! a file puts stripe `i` on the same servers, so placement stays the
//! paper's function of path and stripe number while an old incarnation's
//! stripes stay unreachable by name.

/// Prefix for stripe data keys.
pub const STRIPE_PREFIX: &str = "s:";
/// Prefix for file-metadata keys.
pub const FILE_PREFIX: &str = "f:";
/// Prefix for directory-metadata keys.
pub const DIR_PREFIX: &str = "d:";

/// Bytes of a stripe key's `@<generation>` suffix: the tag and 16 hex
/// digits.
const GENERATION_LEN: usize = 1 + 16;

/// Key construction and parsing for the MemFS namespaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeySchema;

/// Classification of a raw store key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedKey<'a> {
    /// A data stripe: path, generation and stripe index.
    Stripe {
        /// Normalized file path.
        path: &'a str,
        /// The file incarnation the stripe belongs to.
        generation: u64,
        /// Zero-based stripe number.
        index: u64,
    },
    /// A file-size metadata record.
    FileMeta {
        /// Normalized file path.
        path: &'a str,
    },
    /// A directory log record.
    DirMeta {
        /// Normalized directory path.
        path: &'a str,
    },
    /// Not a MemFS key.
    Foreign,
}

impl KeySchema {
    /// Key of stripe `index` of generation `generation` of `path` —
    /// `s:<path>#<index>@<generation>`, the generation as 16 hex digits.
    pub fn stripe_key(path: &str, generation: u64, index: u64) -> Vec<u8> {
        format!("{STRIPE_PREFIX}{path}#{index}@{generation:016x}").into_bytes()
    }

    /// Key of the file-size record of `path` — `f:<path>`.
    pub fn file_key(path: &str) -> Vec<u8> {
        format!("{FILE_PREFIX}{path}").into_bytes()
    }

    /// Key of the directory log of `path` — `d:<path>`.
    pub fn dir_key(path: &str) -> Vec<u8> {
        format!("{DIR_PREFIX}{path}").into_bytes()
    }

    /// The bytes `key` is placed by: a stripe key without its
    /// `@<generation>` suffix, any other key whole.
    pub fn placement(key: &[u8]) -> &[u8] {
        match Self::generation_at(key) {
            Some(at) => &key[..at],
            None => key,
        }
    }

    /// Where a stripe key's `@<generation>` suffix starts.
    fn generation_at(key: &[u8]) -> Option<usize> {
        let at = key.len().checked_sub(GENERATION_LEN)?;
        let digits = &key[at + 1..];
        let tagged = at > STRIPE_PREFIX.len() && key[at] == b'@';
        let stripe = key.starts_with(STRIPE_PREFIX.as_bytes());
        (stripe && tagged && digits.iter().all(u8::is_ascii_hexdigit)).then_some(at)
    }

    /// Classify a raw key.
    pub fn parse(key: &[u8]) -> ParsedKey<'_> {
        let Ok(text) = std::str::from_utf8(key) else {
            return ParsedKey::Foreign;
        };
        if text.starts_with(STRIPE_PREFIX) {
            let Some(at) = Self::generation_at(key) else {
                return ParsedKey::Foreign;
            };
            // The stripe index is after the *last* '#', letting paths
            // contain '#' themselves.
            let rest = &text[STRIPE_PREFIX.len()..at];
            let Some(pos) = rest.rfind('#') else {
                return ParsedKey::Foreign;
            };
            let generation = u64::from_str_radix(&text[at + 1..], 16);
            match (generation, rest[pos + 1..].parse::<u64>()) {
                (Ok(generation), Ok(index)) => ParsedKey::Stripe {
                    path: &rest[..pos],
                    generation,
                    index,
                },
                _ => ParsedKey::Foreign,
            }
        } else if let Some(path) = text.strip_prefix(FILE_PREFIX) {
            ParsedKey::FileMeta { path }
        } else if let Some(path) = text.strip_prefix(DIR_PREFIX) {
            ParsedKey::DirMeta { path }
        } else {
            ParsedKey::Foreign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_key_round_trips() {
        let key = KeySchema::stripe_key("/m17/proj_042.fits", 0xabc, 7);
        assert_eq!(key, b"s:/m17/proj_042.fits#7@0000000000000abc".to_vec());
        assert_eq!(
            KeySchema::parse(&key),
            ParsedKey::Stripe {
                path: "/m17/proj_042.fits",
                generation: 0xabc,
                index: 7
            }
        );
    }

    #[test]
    fn stripe_path_containing_hash_parses() {
        let key = KeySchema::stripe_key("/odd#name@x", u64::MAX, 3);
        assert_eq!(
            KeySchema::parse(&key),
            ParsedKey::Stripe {
                path: "/odd#name@x",
                generation: u64::MAX,
                index: 3
            }
        );
    }

    #[test]
    fn placement_drops_only_a_stripe_keys_generation() {
        for generation in [0, 7, u64::MAX] {
            let key = KeySchema::stripe_key("/a@b#c", generation, 12);
            assert_eq!(KeySchema::placement(&key), b"s:/a@b#c#12");
        }
        for key in [
            &b"f:/x#1@0000000000000000"[..],
            b"d:/x",
            b"s:/x#1",
            b"s:@0000000000000000",
            b"random",
        ] {
            assert_eq!(KeySchema::placement(key), key);
        }
    }

    #[test]
    fn file_and_dir_keys_distinct() {
        let f = KeySchema::file_key("/x");
        let d = KeySchema::dir_key("/x");
        assert_ne!(f, d);
        assert_eq!(KeySchema::parse(&f), ParsedKey::FileMeta { path: "/x" });
        assert_eq!(KeySchema::parse(&d), ParsedKey::DirMeta { path: "/x" });
    }

    #[test]
    fn adjacent_stripes_have_distinct_keys() {
        assert_ne!(
            KeySchema::stripe_key("/f", 0, 1),
            KeySchema::stripe_key("/f", 0, 10)
        );
        assert_ne!(
            KeySchema::stripe_key("/f", 0, 0),
            KeySchema::stripe_key("/f0", 0, 0)
        );
        assert_ne!(
            KeySchema::stripe_key("/f", 1, 0),
            KeySchema::stripe_key("/f", 2, 0)
        );
    }

    #[test]
    fn foreign_keys_classified() {
        assert_eq!(KeySchema::parse(b"random"), ParsedKey::Foreign);
        assert_eq!(KeySchema::parse(b"s:nohash"), ParsedKey::Foreign);
        assert_eq!(KeySchema::parse(b"s:bad#idx"), ParsedKey::Foreign);
        assert_eq!(KeySchema::parse(b"s:/old#3"), ParsedKey::Foreign);
        assert_eq!(
            KeySchema::parse(b"s:/x#3@000000000000000g"),
            ParsedKey::Foreign
        );
        assert_eq!(
            KeySchema::parse(b"s:/x@0000000000000000"),
            ParsedKey::Foreign
        );
        assert_eq!(KeySchema::parse(&[0xFF, 0xFE]), ParsedKey::Foreign);
    }
}
