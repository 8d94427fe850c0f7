//! Deterministic workspace traversal.
//!
//! Scans every `.rs` file under `crates/` and `tests/` of the workspace
//! root, plus `examples/` and `dcmbench/src/`, which only rule `R1`'s
//! call graph reads, in sorted path order (so reports and baselines are
//! byte-identical across runs and platforms). Excluded:
//!
//! * `shims/` — offline stand-ins for external crates; their API mirrors
//!   upstream and is not ours to lint;
//! * any `target/` directory — build artifacts;
//! * `crates/lint/tests/fixtures/` — deliberate rule violations used as
//!   positive test fixtures.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace-relative, `/`-separated paths of every file to lint.
///
/// # Errors
/// Propagates filesystem errors (unreadable directory entries).
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples", "dcmbench/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}
