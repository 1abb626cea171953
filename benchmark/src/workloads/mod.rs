//! One file per stack under test.

pub mod dist_fanout;
pub mod lib;
pub mod lib_sharded;
pub mod serve_tcp;
