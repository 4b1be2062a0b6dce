//! Table III as data: the grid/block geometry of every ported kernel.
//!
//! The `table03_geometry` experiment binary prints this table, and the
//! tests below pin each row to the descriptors the program builders
//! actually emit — so the reproduction cannot silently drift from the
//! paper's launch configurations.

use crate::{gaussian, knearest, needle, srad};
use hq_gpu::kernel::KernelDesc;

/// One row of the paper's Table III.
#[derive(Clone, Debug)]
pub struct GeometryRow {
    /// Application name.
    pub application: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Data dimension description.
    pub data_dim: &'static str,
    /// Number of launches per application run.
    pub calls: u32,
    /// Grid dimensions `(x, y, z)` (range endpoints for needle).
    pub grid: (u32, u32, u32),
    /// Block dimensions `(x, y, z)`.
    pub block: (u32, u32, u32),
    /// Thread blocks per launch (maximum, for varying grids).
    pub thread_blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

/// All rows of Table III, in the paper's order.
pub fn table3() -> Vec<GeometryRow> {
    vec![
        GeometryRow {
            application: "gaussian",
            kernel: "Fan1",
            data_dim: "512 x 512",
            calls: 511,
            grid: (1, 1, 1),
            block: (512, 1, 1),
            thread_blocks: 1,
            threads_per_block: 512,
        },
        GeometryRow {
            application: "gaussian",
            kernel: "Fan2",
            data_dim: "512 x 512",
            calls: 511,
            grid: (32, 32, 1),
            block: (16, 16, 1),
            thread_blocks: 1024,
            threads_per_block: 256,
        },
        GeometryRow {
            application: "needle",
            kernel: "needle_cuda_shared_1",
            data_dim: "512 x 512",
            calls: 16,
            grid: (16, 1, 1), // 1..16 over the sweep; max shown
            block: (32, 1, 1),
            thread_blocks: 16,
            threads_per_block: 32,
        },
        GeometryRow {
            application: "needle",
            kernel: "needle_cuda_shared_2",
            data_dim: "512 x 512",
            calls: 15,
            grid: (15, 1, 1), // 15..1 over the sweep; max shown
            block: (32, 1, 1),
            thread_blocks: 15,
            threads_per_block: 32,
        },
        GeometryRow {
            application: "srad",
            kernel: "srad_cuda_1",
            data_dim: "512 x 512",
            calls: 10,
            grid: (32, 32, 1),
            block: (16, 16, 1),
            thread_blocks: 1024,
            threads_per_block: 256,
        },
        GeometryRow {
            application: "srad",
            kernel: "srad_cuda_2",
            data_dim: "512 x 512",
            calls: 10,
            grid: (32, 32, 1),
            block: (16, 16, 1),
            thread_blocks: 1024,
            threads_per_block: 256,
        },
        GeometryRow {
            application: "knearest",
            kernel: "euclid",
            data_dim: "42764",
            calls: 1,
            grid: (168, 1, 1),
            block: (256, 1, 1),
            thread_blocks: 168,
            threads_per_block: 256,
        },
    ]
}

/// Render Table III as a markdown table.
pub fn render_markdown() -> String {
    let mut out = String::from(
        "| Application | Kernel | Data dim | Calls | Grid dim | Block dim | #TB | #TPB |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in table3() {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:?} | {:?} | {} | {} |\n",
            r.application,
            r.kernel,
            r.data_dim,
            r.calls,
            r.grid,
            r.block,
            r.thread_blocks,
            r.threads_per_block
        ));
    }
    out
}

fn check(desc: &KernelDesc, row: &GeometryRow) {
    assert_eq!(desc.name, row.kernel);
    assert_eq!(
        (desc.grid.x, desc.grid.y, desc.grid.z),
        row.grid,
        "{} grid",
        row.kernel
    );
    assert_eq!(
        (desc.block.x, desc.block.y, desc.block.z),
        row.block,
        "{} block",
        row.kernel
    );
    assert_eq!(desc.blocks(), row.thread_blocks, "{} #TB", row.kernel);
    assert_eq!(
        desc.threads_per_block(),
        row.threads_per_block,
        "{} #TPB",
        row.kernel
    );
}

/// Assert every program-builder descriptor matches its Table III row.
/// (Public so the experiment binary can run the same validation.)
pub fn validate_against_builders() {
    let rows = table3();
    check(&gaussian::fan1_kernel(512), &rows[0]);
    check(&gaussian::fan2_kernel(512), &rows[1]);
    check(&needle::shared1_kernel(16), &rows[2]);
    check(&needle::shared2_kernel(15), &rows[3]);
    check(&srad::srad1_kernel(512, 512), &rows[4]);
    check(&srad::srad2_kernel(512, 512), &rows[5]);
    check(&knearest::euclid_kernel(42_764), &rows[6]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_match_table3() {
        validate_against_builders();
    }

    #[test]
    fn table_has_paper_row_count() {
        assert_eq!(table3().len(), 7);
    }

    #[test]
    fn markdown_renders_all_rows() {
        let md = render_markdown();
        assert_eq!(md.lines().count(), 2 + 7);
        assert!(md.contains("euclid"));
        assert!(md.contains("Fan2"));
    }
}
