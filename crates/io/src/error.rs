//! Typed checkpoint I/O errors.
//!
//! Corruption is a *recoverable* condition: a bad checksum or truncated
//! section yields an [`IoError`] naming the damaged part and section, never
//! a panic. Collective entry points agree on failure across ranks — ranks
//! without a local error return [`IoError::PeerFailed`] so no rank is left
//! blocked in an exchange.

use pumi_util::PartId;
use std::path::PathBuf;

/// The sections of a `.pmb` part file, in file order. Code 2 is unused: it
/// was version 2's Tags section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The part's entities, vertices first: one `pumi_core::wire::put_entity`
    /// record each, as migration ships them, with the ghost source as the
    /// extra field and the entity's tags inline.
    Entities,
    /// Part-boundary entities: one `pumi_core::wire::put_residence` row each.
    Remotes,
    /// `pumi-field` fields: descriptors and per-node values.
    Fields,
    /// Delta checkpoints only: gids of entities deleted since the base
    /// snapshot, per dimension.
    Deleted,
}

impl Section {
    /// The full-snapshot sections in file order (a delta part file appends
    /// [`Section::Deleted`] after these).
    pub const ALL: [Section; 3] = [Section::Entities, Section::Remotes, Section::Fields];

    /// Stable on-disk code.
    pub fn to_u8(self) -> u8 {
        match self {
            Section::Entities => 0,
            Section::Remotes => 1,
            Section::Fields => 3,
            Section::Deleted => 4,
        }
    }

    /// Decode an on-disk code.
    pub fn from_u8(x: u8) -> Option<Section> {
        match x {
            0 => Some(Section::Entities),
            1 => Some(Section::Remotes),
            3 => Some(Section::Fields),
            4 => Some(Section::Deleted),
            _ => None,
        }
    }

    /// Human-readable section name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            Section::Entities => "entities",
            Section::Remotes => "remotes",
            Section::Fields => "fields",
            Section::Deleted => "deleted",
        }
    }
}

/// A checkpoint read/write failure. Every variant that concerns a part file
/// names the part (and where applicable the section) so an operator can
/// identify the damaged file.
#[derive(Debug)]
pub enum IoError {
    /// An OS-level I/O failure (open/read/write/create).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The manifest is missing, unreadable, or malformed.
    Manifest {
        /// The manifest path (as resolved on the failing rank).
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A part file's header or section table is damaged (bad magic,
    /// unsupported version, truncated or checksum-failing header bytes).
    Header {
        /// The part whose file is damaged.
        part: PartId,
        /// What went wrong.
        detail: String,
    },
    /// A section extends past the end of the file — the file was truncated.
    Truncated {
        /// The part whose file is damaged.
        part: PartId,
        /// The truncated section.
        section: Section,
        /// Bytes the section table promised.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// A chunk of a `.pmb` section is damaged: truncated,
    /// payload CRC mismatch, failed decompression, or a decompressed-length
    /// disagreement with its header. Names part, section, and chunk index.
    BadChunk {
        /// The part whose file is damaged.
        part: PartId,
        /// The section containing the damaged chunk.
        section: Section,
        /// Zero-based chunk index within the section.
        chunk: u32,
        /// What went wrong.
        detail: String,
    },
    /// A section passed its checksum but does not decode — a writer/reader
    /// disagreement (or a deliberate format attack).
    Decode {
        /// The part whose file is damaged.
        part: PartId,
        /// The undecodable section.
        section: Section,
        /// What went wrong.
        detail: String,
    },
    /// Another rank reported a failure; this rank's local work was fine.
    /// Collective calls return this so every rank exits the operation
    /// together instead of deadlocking in a later exchange.
    PeerFailed {
        /// Number of ranks reporting failure.
        failures: u64,
    },
    /// The boundary rows disagree with the links the restore built: a
    /// stitch or ghost-relink row that could not be applied, a Remotes row
    /// whose peers are not the parts that linked the entity, or copies
    /// whose residence sets differ (empty on ranks whose local parts were
    /// clean; the count is global).
    Verify {
        /// This rank's violations.
        errors: Vec<String>,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io { path, source } => write!(f, "i/o error on {}: {source}", path.display()),
            IoError::Manifest { path, detail } => {
                write!(f, "bad manifest {}: {detail}", path.display())
            }
            IoError::Header { part, detail } => {
                write!(f, "part {part}: damaged header: {detail}")
            }
            IoError::Truncated {
                part,
                section,
                needed,
                have,
            } => write!(
                f,
                "part {part}: section '{}' truncated: need {needed} bytes, have {have}",
                section.name()
            ),
            IoError::BadChunk {
                part,
                section,
                chunk,
                detail,
            } => write!(
                f,
                "part {part}: section '{}' chunk {chunk} damaged: {detail}",
                section.name()
            ),
            IoError::Decode {
                part,
                section,
                detail,
            } => write!(
                f,
                "part {part}: section '{}' does not decode: {detail}",
                section.name()
            ),
            IoError::PeerFailed { failures } => {
                write!(f, "{failures} peer rank(s) reported checkpoint failures")
            }
            IoError::Verify { errors } => write!(
                f,
                "restored mesh failed verification ({} local violations)",
                errors.len()
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_codes_roundtrip() {
        for s in Section::ALL {
            assert_eq!(Section::from_u8(s.to_u8()), Some(s));
        }
        assert_eq!(Section::from_u8(2), None);
        assert_eq!(Section::from_u8(200), None);
    }

    #[test]
    fn errors_name_part_and_section() {
        let e = IoError::BadChunk {
            part: 7,
            section: Section::Fields,
            chunk: 2,
            detail: "payload CRC mismatch".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("part 7") && msg.contains("fields") && msg.contains("chunk 2"),
            "{msg}"
        );
        let e = IoError::Truncated {
            part: 3,
            section: Section::Entities,
            needed: 100,
            have: 40,
        };
        let msg = e.to_string();
        assert!(msg.contains("part 3") && msg.contains("entities"), "{msg}");
    }
}
