//! The end-to-end run: the system allocator, untouched.

fn main() {
    std::process::exit(perfbench::cli_main(false));
}
