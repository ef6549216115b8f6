//! Synthetic datasets and workloads standing in for the paper's
//! SIFT100M/1B, Deep100M/1B, and LDBC-SNB inputs (§6.1), plus exact ground
//! truth for recall measurement:
//!
//! * [`vectors`] — deterministic clustered Gaussian vector generators with
//!   the two shapes the paper benchmarks (SIFT: 128-d non-normalized;
//!   Deep: 96-d normalized), scaled down per DESIGN.md;
//! * [`snb`] — an LDBC-SNB-like social graph (Person/Post/Comment/Country,
//!   knows/hasCreator/replyOf/isLocatedIn) with content embeddings on
//!   messages, parameterized by a scale factor;
//! * [`ic`] — the modified LDBC interactive-complex query family of §6.5
//!   (IC3/5/6/9/11 shapes with variable KNOWS repetitions) whose candidate
//!   sets feed a top-k vector search, instrumented exactly like Tables 3–4.

pub(crate) mod ic;
pub(crate) mod snb;
pub mod vectors;

pub use ic::{run_ic, IcQuery};
pub use snb::{SnbConfig, SnbGraph};
pub use vectors::{ground_truth, DatasetShape, VectorDataset};
