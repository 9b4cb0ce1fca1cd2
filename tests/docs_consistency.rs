//! Documentation consistency: the tests and examples the documentation
//! points at actually exist, so EXPERIMENTS.md's "regenerate" lines never
//! rot.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `**Regenerate.**` paragraphs of EXPERIMENTS.md, each joined into
/// one line (a paragraph ends at the next blank line).
fn regenerate_paragraphs(text: &str) -> Vec<String> {
    let mut paragraphs = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.trim().is_empty() {
            paragraphs.extend(current.take());
        } else if let Some(p) = current.as_mut() {
            p.push(' ');
            p.push_str(line);
        } else if line.starts_with("**Regenerate.**") {
            current = Some(line.to_string());
        }
    }
    paragraphs.extend(current);
    paragraphs
}

#[test]
fn experiments_regenerate_tests_exist() {
    let text = fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    let mut referenced = BTreeSet::new();
    for paragraph in regenerate_paragraphs(&text) {
        assert!(
            !paragraph.contains("--bench"),
            "EXPERIMENTS.md regenerates from a bench target, but the \
             workspace has none: {paragraph}"
        );
        for (idx, _) in paragraph.match_indices("--test ") {
            let rest = &paragraph[idx + "--test ".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                referenced.insert(name);
            }
        }
    }
    assert!(
        !referenced.is_empty(),
        "no EXPERIMENTS.md Regenerate line names a test"
    );
    let crates: Vec<_> = fs::read_dir(repo_root().join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    for name in &referenced {
        let file = format!("{name}.rs");
        let found = repo_root().join("tests").join(&file).exists()
            || crates.iter().any(|c| c.join("tests").join(&file).exists());
        assert!(
            found,
            "EXPERIMENTS.md regenerates from missing test {name} \
             (looked in tests/ and crates/*/tests/)"
        );
    }
}

#[test]
fn readme_examples_exist_and_are_registered() {
    let readme = fs::read_to_string(repo_root().join("README.md")).unwrap();
    let manifest = fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let mut seen = 0;
    for line in readme.lines() {
        if let Some(idx) = line.find("--example ") {
            let rest = &line[idx + "--example ".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            assert!(
                repo_root().join(format!("examples/{name}.rs")).exists(),
                "README references missing example {name}"
            );
            assert!(
                manifest.contains(&format!("name = \"{name}\"")),
                "example {name} not registered in Cargo.toml"
            );
            seen += 1;
        }
    }
    assert!(
        seen >= 5,
        "README should showcase at least five examples, found {seen}"
    );
}

#[test]
fn design_lists_every_protocol_module() {
    let design = fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    for entry in fs::read_dir(repo_root().join("crates/protocols/src")).unwrap() {
        let file = entry.unwrap().file_name();
        let name = file.to_string_lossy();
        let stem = name.trim_end_matches(".rs");
        if stem == "lib" {
            continue;
        }
        assert!(
            design.contains(stem) || design.contains(&stem.replace('_', "-")),
            "DESIGN.md does not mention protocol module {stem}"
        );
    }
}
