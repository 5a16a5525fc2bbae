// Fixture: layering inversions — the scheduler reaching up into the
// workload generator and the bench harness, and sideways into the kernel
// IR.
use tally_bench::JsonSink;
use tally_ptx::Module;
use tally_workloads::mixes::Mix;

pub fn peek(mix: &Mix, module: &Module) -> usize {
    let _sink = JsonSink::to_path("bad", None);
    tally_workloads::mixes::size_of(mix) + module.kernels.len()
}
