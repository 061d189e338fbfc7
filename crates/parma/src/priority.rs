//! Priority lists (§III-A).
//!
//! "An application executing the multi-criteria partition improvement
//! procedure provides a priority list of mesh entity types to be balanced
//! such that the imbalance of higher priority entity types is not increased
//! while balancing a lower priority type." Lists are written the way the
//! paper writes them: `"Rgn > Face = Edge > Vtx"`, `"Vtx > Rgn"` (Table I).

use pumi_util::Dim;
use std::fmt;
use std::str::FromStr;

/// A parsed priority list: levels in decreasing priority; equal-priority
/// types within a level are "traversed in order of increasing topological
/// dimension".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Priority {
    /// Levels, highest priority first; each level's dims sorted ascending.
    pub levels: Vec<Vec<Dim>>,
}

impl Priority {
    /// Build from explicit levels.
    pub fn new(mut levels: Vec<Vec<Dim>>) -> Priority {
        for level in &mut levels {
            level.sort_unstable();
            level.dedup();
        }
        levels.retain(|l| !l.is_empty());
        assert!(!levels.is_empty(), "empty priority list");
        Priority { levels }
    }

    /// The balancing order: (dim, level index) pairs, levels first, dims
    /// ascending within a level.
    pub fn order(&self) -> Vec<(Dim, usize)> {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(li, dims)| dims.iter().map(move |&d| (d, li)))
            .collect()
    }

    /// All dims with priority strictly higher than level `li`, plus the
    /// already-balanced dims of level `li` before `d` — the types a later
    /// balancing stage must not harm.
    pub fn protected(&self, d: Dim, li: usize) -> Vec<Dim> {
        let mut out = Vec::new();
        for (lj, dims) in self.levels.iter().enumerate() {
            for &x in dims {
                if lj < li || (lj == li && x < d) {
                    out.push(x);
                }
            }
        }
        out
    }

    /// Dims with priority strictly *lower* than level `li` (used by the
    /// candidate-part rule).
    pub fn lesser(&self, li: usize) -> Vec<Dim> {
        self.levels
            .iter()
            .enumerate()
            .filter(|&(lj, _)| lj > li)
            .flat_map(|(_, dims)| dims.iter().copied())
            .collect()
    }
}

fn parse_dim(tok: &str) -> Result<Dim, String> {
    match tok.trim().to_ascii_lowercase().as_str() {
        "vtx" | "vertex" | "v" => Ok(Dim::Vertex),
        "edge" | "e" => Ok(Dim::Edge),
        "face" | "f" => Ok(Dim::Face),
        "rgn" | "region" | "r" => Ok(Dim::Region),
        other => Err(format!("unknown entity type '{other}'")),
    }
}

impl FromStr for Priority {
    type Err = String;

    /// Parse e.g. `"Vtx > Rgn"`, `"Edge=Face>Rgn"`.
    fn from_str(s: &str) -> Result<Priority, String> {
        let mut levels = Vec::new();
        for level in s.split('>') {
            let mut dims = Vec::new();
            for tok in level.split('=') {
                if tok.trim().is_empty() {
                    return Err(format!("empty entity type in '{s}'"));
                }
                dims.push(parse_dim(tok)?);
            }
            levels.push(dims);
        }
        if levels.is_empty() {
            return Err("empty priority list".into());
        }
        Ok(Priority::new(levels))
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |d: Dim| match d {
            Dim::Vertex => "Vtx",
            Dim::Edge => "Edge",
            Dim::Face => "Face",
            Dim::Region => "Rgn",
        };
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| l.iter().map(|&d| name(d)).collect::<Vec<_>>().join(" = "))
            .collect();
        write!(f, "{}", levels.join(" > "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_table1_tests() {
        // T1: Vtx > Rgn
        let p: Priority = "Vtx > Rgn".parse().unwrap();
        assert_eq!(p.levels, vec![vec![Dim::Vertex], vec![Dim::Region]]);
        // T2: Vtx = Edge > Rgn
        let p: Priority = "Vtx = Edge > Rgn".parse().unwrap();
        assert_eq!(
            p.levels,
            vec![vec![Dim::Vertex, Dim::Edge], vec![Dim::Region]]
        );
        // T4: Edge = Face > Rgn
        let p: Priority = "Edge=Face>Rgn".parse().unwrap();
        assert_eq!(
            p.levels,
            vec![vec![Dim::Edge, Dim::Face], vec![Dim::Region]]
        );
    }

    #[test]
    fn order_is_levels_then_ascending_dim() {
        let p: Priority = "Rgn > Face = Edge > Vtx".parse().unwrap();
        let order = p.order();
        assert_eq!(
            order,
            vec![
                (Dim::Region, 0),
                (Dim::Edge, 1),
                (Dim::Face, 1),
                (Dim::Vertex, 2)
            ]
        );
    }

    #[test]
    fn protected_sets() {
        let p: Priority = "Rgn > Face = Edge > Vtx".parse().unwrap();
        assert!(p.protected(Dim::Region, 0).is_empty());
        assert_eq!(p.protected(Dim::Edge, 1), vec![Dim::Region]);
        // Face is balanced after Edge within the level: Edge is protected.
        assert_eq!(p.protected(Dim::Face, 1), vec![Dim::Region, Dim::Edge]);
        assert_eq!(
            p.protected(Dim::Vertex, 2),
            vec![Dim::Region, Dim::Edge, Dim::Face]
        );
    }

    #[test]
    fn lesser_sets() {
        let p: Priority = "Vtx = Edge > Rgn".parse().unwrap();
        assert_eq!(p.lesser(0), vec![Dim::Region]);
        assert!(p.lesser(1).is_empty());
    }

    #[test]
    fn display_roundtrip() {
        for s in ["Vtx > Rgn", "Vtx = Edge > Rgn", "Edge = Face > Rgn"] {
            let p: Priority = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
            let p2: Priority = p.to_string().parse().unwrap();
            assert_eq!(p, p2);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!("Vtx >> Rgn".parse::<Priority>().is_err());
        assert!("Blob".parse::<Priority>().is_err());
        assert!("".parse::<Priority>().is_err());
    }
}
