//! Untraced benchmark binary: the end-to-end metrics, measured with the
//! system allocator and none of the benchmark's spans.

fn main() {
    std::process::exit(perfbench::main_with_args());
}
