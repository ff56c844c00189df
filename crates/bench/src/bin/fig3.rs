//! Figure 3: page-table scan time vs memory capacity for base, huge, and
//! giant pages.

use hemem_bench::{ExpArgs, Report};
use hemem_vmm::{scan_time, PageSize};

fn main() {
    let _args = ExpArgs::parse();
    let mut rep = Report::new(
        "fig3",
        "Figure 3: page table scan time vs capacity",
        &[
            "capacity (GiB)",
            "4 KiB pages (ms)",
            "2 MiB pages (ms)",
            "1 GiB pages (ms)",
        ],
    );
    for gib in [1u64, 4, 16, 64, 256, 1024, 2048, 4096] {
        let bytes = gib << 30;
        let mut cells = vec![gib.to_string()];
        for ps in [PageSize::Base4K, PageSize::Huge2M, PageSize::Giga1G] {
            let t = scan_time(bytes, ps);
            cells.push(format!("{:.4}", t.as_millis_f64()));
        }
        rep.row(&cells);
    }
    rep.emit();
}
