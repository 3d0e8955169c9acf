//! Empty on purpose. Nothing in the workspace uses `crossbeam` any more:
//! the carriers share a private std mailbox (`asj_net::mailbox`) and the
//! parallel kernels call `std::thread::scope` directly. The crate exists
//! only because the frozen `benchmark/Cargo.lock` names `crossbeam` under
//! `asj-geom`, `asj-net`, `asj-device` and `asj-server`; dropping those
//! `[dependencies]` lines would stale it. Delete this crate and the four
//! lines together when `benchmark/` is next unfrozen.
