//! Integration test: `forumcast train` through the CLI's front door
//! (`forumcast_cli::run`, which returns the exit code) on forums that
//! leave nothing to train on.

use std::path::{Path, PathBuf};

use forumcast::data::io;
use forumcast::prelude::*;

/// A directory of this test's files, empty at the start of each run.
fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forumcast-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `forumcast train` on `data`, returning the exit code and stderr.
fn train(data: &Path, dir: &Path) -> (i32, String) {
    let model = dir.join("model.json");
    let argv = [
        "train",
        "--data",
        data.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ];
    let argv = argv.into_iter().map(String::from);
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = forumcast_cli::run(argv, &mut out, &mut err);
    (code, String::from_utf8(err).expect("utf-8"))
}

#[test]
fn train_on_a_forum_without_training_data_exits_1_naming_the_task() {
    let dir = work_dir("train");
    let small = SynthConfig::small().with_seed(7).generate();
    let first = Dataset::new(small.num_users(), small.threads()[..1].to_vec()).expect("valid");
    let forums = [
        ("empty", r#"{"num_users": 5, "threads": []}"#.to_string()),
        ("no-users", r#"{"num_users": 0, "threads": []}"#.to_string()),
        ("one-thread", io::to_json(&first).expect("serializes")),
    ];
    for (name, json) in forums {
        let data = dir.join(format!("{name}.json"));
        std::fs::write(&data, json).expect("write forum");
        let (code, err) = train(&data, &dir);
        assert_eq!(code, 1, "{name}: {err}");
        assert!(
            err.starts_with("error: no training data for the "),
            "{name}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
