//! The traced run: the same program with allocations counted.

#[global_allocator]
static GLOBAL: perfbench::measure::CountingAlloc = perfbench::measure::CountingAlloc;

fn main() {
    std::process::exit(perfbench::cli_main(true));
}
