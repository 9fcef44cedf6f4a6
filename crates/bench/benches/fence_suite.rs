//! The fence suite (`lbmf_bench::suite`) under the mini-criterion: E1
//! Dekker entry per strategy, the raw fence costs, the E2 remote
//! serialization round trips and one ACilk-5 steal run, with the row
//! names `lbmf-obs record` writes. This package builds `lbmf` with
//! tracing compiled out, so the rows price the runtime, not the tracer.

use lbmf_bench::criterion::{criterion_group, criterion_main};
use lbmf_bench::suite::fence_suite;

criterion_group!(group, fence_suite);
criterion_main!(group);
