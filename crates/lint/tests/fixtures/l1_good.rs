// Fixture: the edge the DAG allows for tally_core — down into the device
// model, never sideways or up.
use tally_gpu::GpuSpec;

pub fn slots(spec: &GpuSpec) -> u64 {
    spec.total_thread_slots()
}
