//! One module per paper artifact, plus the observability overhead guards
//! (`overhead`). Each experiment prints its table and writes
//! `results/<id>.{txt,csv}`.

pub mod ablations;
pub mod fig6a;
pub mod fig6b;
pub mod fig6c;
pub mod fig6d;
pub mod overhead;
pub mod rd;
pub mod table1;
pub mod table4;
pub mod table5;
