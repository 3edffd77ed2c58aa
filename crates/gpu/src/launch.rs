//! Kernel launch configuration.

use crate::occupancy::BlockResources;

/// Grid-level description of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Total thread blocks in the grid.
    pub grid_blocks: usize,
    /// Per-block resource appetite.
    pub block: BlockResources,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    pub fn new(grid_blocks: usize, block: BlockResources) -> Self {
        LaunchConfig { grid_blocks, block }
    }

    /// Total threads across the grid.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks * self.block.threads
    }

    /// Total warps across the grid.
    pub fn total_warps(&self) -> usize {
        self.grid_blocks * self.block.threads.div_ceil(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let lc = LaunchConfig::new(10, BlockResources::new(96, 32, 0));
        assert_eq!(lc.total_threads(), 960);
        assert_eq!(lc.total_warps(), 30);
    }
}
