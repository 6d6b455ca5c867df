//! Traced benchmark binary: the per-layer metrics, with the benchmark's
//! spans and an allocation-counting allocator.

#[global_allocator]
static ALLOC: bench::alloc::CountingAllocator = bench::alloc::CountingAllocator;

fn main() {
    std::process::exit(perfbench::main_with_args());
}
