//! Key-recovery benchmark for the relock workspace: full `Decryptor`
//! attacks on trained, locked Table 1 victims, with a per-layer ledger
//! measured from outside the program. See `README.md` for the workloads,
//! the metrics and how to run it.

pub mod attack;
pub mod heap;
pub mod ledger;
pub mod probe;
pub mod run;
pub mod workload;

#[global_allocator]
static ALLOCATOR: heap::CountingAlloc = heap::CountingAlloc;
