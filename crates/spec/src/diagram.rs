//! MG diagrams and the overall diagram/block tree.
//!
//! "An MG diagram represents a system or subsystem and contains a number
//! of MG blocks. … The overall diagram/block model is a tree structure
//! of MG diagrams and MG blocks. The root diagram is numbered level 1."
//! (paper Section 3).

use crate::block::{Block, BlockParams};
use crate::params::GlobalParams;

/// An MG diagram: a named list of blocks, modeled as a serial RBD.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagram {
    /// Diagram name, e.g. `"Data Center System"`.
    pub name: String,
    /// The blocks of the diagram.
    pub blocks: Vec<Block>,
}

impl Diagram {
    /// Creates an empty diagram.
    pub fn new(name: impl Into<String>) -> Self {
        Diagram { name: name.into(), blocks: Vec::new() }
    }

    /// Appends a leaf block built from parameters.
    pub fn push(&mut self, params: BlockParams) -> &mut Self {
        self.blocks.push(Block::leaf(params));
        self
    }

    /// Appends an already-built block (possibly with a subdiagram).
    pub fn push_block(&mut self, block: Block) -> &mut Self {
        self.blocks.push(block);
        self
    }

    /// Number of blocks directly in this diagram.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the diagram has no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Depth of the diagram tree rooted here (a flat diagram has depth
    /// 1; the paper's Figures 1–2 model has depth 2).
    #[must_use]
    pub fn depth(&self) -> usize {
        1 + self
            .blocks
            .iter()
            .filter_map(|b| b.subdiagram.as_ref().map(Diagram::depth))
            .max()
            .unwrap_or(0)
    }

    /// Total number of blocks in the tree rooted here.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.blocks.len()
            + self
                .blocks
                .iter()
                .filter_map(|b| b.subdiagram.as_ref().map(Diagram::total_blocks))
                .sum::<usize>()
    }

    /// Walks the tree depth-first, calling `f` with (level, path,
    /// block); the root diagram is level 1, matching the paper's
    /// numbering.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(usize, &str, &'a Block)) {
        self.walk_inner(1, &self.name, f);
    }

    fn walk_inner<'a>(
        &'a self,
        level: usize,
        path: &str,
        f: &mut impl FnMut(usize, &str, &'a Block),
    ) {
        for b in &self.blocks {
            let bpath = format!("{path}/{}", b.params.name);
            f(level, &bpath, b);
            if let Some(sub) = &b.subdiagram {
                sub.walk_inner(level + 1, &bpath, f);
            }
        }
    }

    /// Walks the tree depth-first with mutable access to each block
    /// (used by global parameter sweeps).
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Block)) {
        for b in &mut self.blocks {
            f(b);
            if let Some(sub) = &mut b.subdiagram {
                sub.walk_mut(f);
            }
        }
    }

    /// Finds a block by slash-separated path relative to this diagram
    /// (not including the diagram's own name), e.g.
    /// `"Server Box/CPU Module"`. Block names may themselves contain
    /// `/` (`"Server Box/I/O Board"` resolves).
    #[must_use]
    pub fn find(&self, path: &str) -> Option<&Block> {
        let mut route = self.route(path)?.into_iter();
        let mut block = &self.blocks[route.next()?];
        for i in route {
            block = &block.subdiagram.as_ref()?.blocks[i];
        }
        Some(block)
    }

    /// Mutable variant of [`find`](Self::find).
    pub fn find_mut(&mut self, path: &str) -> Option<&mut Block> {
        let mut route = self.route(path)?.into_iter();
        let mut block = &mut self.blocks[route.next()?];
        for i in route {
            block = &mut block.subdiagram.as_mut()?.blocks[i];
        }
        Some(block)
    }

    /// Block indices, level by level, of the block at `path`. At each
    /// level a child whose whole name equals the rest of the path wins;
    /// otherwise each child whose name is a prefix of it ending at a
    /// `/` is tried in order, descending into its subdiagram.
    fn route(&self, path: &str) -> Option<Vec<usize>> {
        if let Some(i) = self.blocks.iter().position(|b| b.params.name == path) {
            return Some(vec![i]);
        }
        self.blocks.iter().enumerate().find_map(|(i, b)| {
            let rest = path.strip_prefix(b.params.name.as_str())?.strip_prefix('/')?;
            let mut route = b.subdiagram.as_ref()?.route(rest)?;
            route.insert(0, i);
            Some(route)
        })
    }
}

/// A complete system specification: the root diagram plus the global
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The level-1 diagram.
    pub root: Diagram,
    /// Global parameters applying to every block.
    pub globals: GlobalParams,
}

impl SystemSpec {
    /// Bundles a root diagram with global parameters.
    #[must_use]
    pub fn new(root: Diagram, globals: GlobalParams) -> Self {
        SystemSpec { root, globals }
    }

    /// Validates the whole tree; see [`crate::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpecError::Invalid`] carrying every diagnostic
    /// found when any error-severity finding exists.
    pub fn validate(&self) -> Result<(), crate::SpecError> {
        let mut span = rascad_obs::span("spec.validate");
        span.record("blocks", self.root.total_blocks());
        span.record("depth", self.root.depth());
        let result = crate::validate::validate(self);
        span.record("ok", result.is_ok());
        result
    }

    /// Serializes to the canonical JSON interchange form.
    ///
    /// The writer is hand-rolled on `rascad_obs::json` (see
    /// [`crate::json`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpecError::Json`] on serialization failure.
    pub fn to_json(&self) -> Result<String, crate::SpecError> {
        Ok(crate::json::spec_to_value(self).to_string_pretty())
    }

    /// Parses the JSON interchange form.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpecError::Json`] on malformed input.
    pub fn from_json(s: &str) -> Result<Self, crate::SpecError> {
        let mut span = rascad_obs::span("spec.parse_json");
        span.record("bytes", s.len());
        let value = rascad_obs::json::parse(s)
            .map_err(|e| crate::SpecError::Json { message: e.to_string() })?;
        let spec = crate::json::spec_from_value(&value)?;
        span.record("blocks", spec.root.total_blocks());
        Ok(spec)
    }

    /// Serializes to the text DSL; see [`crate::dsl`].
    #[must_use]
    pub fn to_dsl(&self) -> String {
        crate::dsl::printer::print(self)
    }

    /// Parses the text DSL.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SpecError::Parse`] with position information.
    pub fn from_dsl(s: &str) -> Result<Self, crate::SpecError> {
        let mut span = rascad_obs::span("spec.parse_dsl");
        span.record("bytes", s.len());
        let spec = crate::dsl::parser::parse(s)?;
        span.record("blocks", spec.root.total_blocks());
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagram {
        let mut sub = Diagram::new("Server Internals");
        sub.push(BlockParams::new("CPU Module", 4, 1));
        sub.push(BlockParams::new("Memory Bank", 8, 7));
        let mut root = Diagram::new("Data Center");
        root.push_block(Block::with_subdiagram(BlockParams::new("Server Box", 1, 1), sub));
        root.push(BlockParams::new("Boot Drives", 2, 1));
        root
    }

    #[test]
    fn tree_metrics() {
        let d = sample();
        assert_eq!(d.len(), 2);
        assert_eq!(d.depth(), 2);
        assert_eq!(d.total_blocks(), 4);
    }

    #[test]
    fn walk_levels_match_paper_numbering() {
        let d = sample();
        let mut seen = Vec::new();
        d.walk(&mut |level, path, b| seen.push((level, path.to_string(), b.params.name.clone())));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], (1, "Data Center/Server Box".into(), "Server Box".into()));
        assert_eq!(seen[1].0, 2); // CPU Module at level 2
        assert_eq!(seen[3], (1, "Data Center/Boot Drives".into(), "Boot Drives".into()));
    }

    #[test]
    fn find_by_path() {
        let mut d = sample();
        assert!(d.find("Server Box").is_some());
        assert_eq!(d.find("Server Box/CPU Module").unwrap().params.quantity, 4);
        assert!(d.find("Server Box/GPU").is_none());
        assert!(d.find("Nope").is_none());

        // Names containing `/`, as in the library's e10000 ("I/O Board")
        // and datacenter ("Server Box/I/O Board", "Server Box/DVD/Tape
        // Unit") models.
        d.push(BlockParams::new("I/O Board", 4, 3));
        let server = d.find_mut("Server Box").unwrap().subdiagram.as_mut().unwrap();
        server.push(BlockParams::new("I/O Board", 2, 1));
        server.push(BlockParams::new("DVD/Tape Unit", 1, 1));
        assert_eq!(d.find("I/O Board").unwrap().params.quantity, 4);
        assert_eq!(d.find("Server Box/I/O Board").unwrap().params.quantity, 2);
        assert_eq!(d.find("Server Box/DVD/Tape Unit").unwrap().params.name, "DVD/Tape Unit");
        assert!(d.find("Server Box/DVD").is_none());
        assert!(d.find("I/O Board/CPU Module").is_none());

        // A whole-name match beats descending through a prefix.
        d.push(BlockParams::new("Server Box/CPU Module", 3, 2));
        assert_eq!(d.find("Server Box/CPU Module").unwrap().params.quantity, 3);
        assert_eq!(d.find("Server Box/Memory Bank").unwrap().params.quantity, 8);
    }

    #[test]
    fn find_mut_edits_in_place() {
        let mut d = sample();
        d.find_mut("Server Box/CPU Module").unwrap().params.quantity = 8;
        assert_eq!(d.find("Server Box/CPU Module").unwrap().params.quantity, 8);
    }

    #[test]
    fn json_roundtrip() {
        let spec = SystemSpec::new(sample(), GlobalParams::default());
        let json = spec.to_json().unwrap();
        let back = SystemSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn bad_json_reports_error() {
        assert!(matches!(SystemSpec::from_json("{ not json"), Err(crate::SpecError::Json { .. })));
    }
}
