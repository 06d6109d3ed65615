//! # isi-columnstore — a dictionary-encoded main-memory column store
//!
//! The substrate the paper's prototype lives in: a column store modelled
//! on SAP HANA's two-part columns (Section 2.1).
//!
//! * **Main**: read-optimized — a sorted dictionary array (codes =
//!   positions, `locate` = binary search) plus a bit-packed code
//!   vector.
//! * **Delta**: update-friendly — an unsorted, append-ordered dictionary
//!   indexed by a CSB+-tree whose leaf comparisons fetch from the
//!   dictionary array (the extra suspension point of Section 5.5), plus
//!   its own code vector.
//!
//! IN-predicate queries ([`query::execute_in`]) encode the predicate
//! list with a bulk `locate` — the index join the paper accelerates by
//! interleaving — then scan the code vectors. [`Column::merge_delta`]
//! implements the delta-merge lifecycle.
//!
//! ```
//! use isi_columnstore::{Column, execute_in};
//! use isi_core::policy::Interleave;
//!
//! let mut col = Column::from_rows(&[30u32, 10, 20, 10]);
//! col.append(40); // goes to the delta part
//! let (rows, stats) = execute_in(&col, &[10, 40], Interleave::Interleaved(6));
//! assert_eq!(rows, vec![1, 3, 4]);
//! assert_eq!(stats.main_matches, 1);
//! assert_eq!(stats.delta_matches, 1);
//! ```

#![forbid(unsafe_code)]

mod codevec;
mod column;
mod dict;
mod query;
mod table;

pub use codevec::{bits_for, BitPackedVec};
pub use column::{Column, DeltaPart, MainPart};
pub use dict::{delta_locate_coro, DeltaDictionary, MainDictionary};
pub use query::{execute_in, execute_in_naive, InQueryStats};
pub use table::Table;
