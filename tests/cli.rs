//! End-to-end tests of the `sgtool` command-line front end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sgtool(args: &[&str]) -> Output {
    sgtool_env(args, &[])
}

fn sgtool_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sgtool"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("failed to run sgtool")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sgtool-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn compress_info_eval_roundtrip() {
    let file = temp_path("roundtrip.sgc");
    let f = file.to_str().unwrap();

    let o = sgtool(&[
        "compress",
        "--dims",
        "3",
        "--level",
        "5",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("351 points"), "{}", stdout(&o));

    let o = sgtool(&["info", f]);
    assert!(o.status.success());
    let s = stdout(&o);
    assert!(s.contains("dimensionality : 3"));
    assert!(s.contains("points         : 351"));
    assert!(s.contains("integral"));

    // The parabola peaks at 1 in the centre, exactly interpolated.
    let o = sgtool(&["eval", f, "0.5,0.5,0.5"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("= 1.0000000000"), "{}", stdout(&o));

    let o = sgtool(&["integrate", f]);
    assert!(o.status.success());
    let integral: f64 = stdout(&o).trim().parse().unwrap();
    // ∫ (4x(1−x))³ ≈ (2/3)³ at this resolution.
    assert!(
        (integral - (2.0f64 / 3.0).powi(3)).abs() < 0.01,
        "{integral}"
    );

    let o = sgtool(&[
        "slice",
        f,
        "--axes",
        "0,1",
        "--at",
        "0.5,0.5,0.5",
        "--width",
        "20",
    ]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("axes x=0 y=1"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn rejects_bad_inputs() {
    let o = sgtool(&["eval", "/nonexistent/grid.sgc", "0.5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot read"));

    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "4",
        "--function",
        "nope",
        "--out",
        "/tmp/x.sgc",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown function"));

    // Invalid grid shapes exit cleanly rather than panicking.
    let o = sgtool(&[
        "compress",
        "--dims",
        "0",
        "--level",
        "3",
        "--function",
        "parabola",
        "--out",
        "/tmp/x.sgc",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("dimension must be at least 1"));
    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "40",
        "--function",
        "parabola",
        "--out",
        "/tmp/x.sgc",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("level above 31"));

    let o = sgtool(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));

    let o = sgtool(&[]);
    assert!(!o.status.success());
}

#[test]
fn eval_validates_points() {
    let file = temp_path("validate.sgc");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "3",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success());

    // Wrong arity.
    let o = sgtool(&["eval", f, "0.5,0.5,0.5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("coordinates"));

    // Out of domain.
    let o = sgtool(&["eval", f, "0.5,1.5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unit domain"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn detects_corrupt_files() {
    let file = temp_path("corrupt.sgc");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "2",
        "--level",
        "3",
        "--function",
        "gaussian",
        "--out",
        f,
    ]);
    assert!(o.status.success());

    let mut blob = std::fs::read(&file).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    std::fs::write(&file, &blob).unwrap();

    let o = sgtool(&["info", f]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("checksum"), "{}", stderr(&o));

    std::fs::remove_file(&file).ok();
}

#[test]
fn flags_before_the_file_and_one_dimensional_eval() {
    let file = temp_path("flags.sgc");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "1",
        "--level",
        "4",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Flag value before the positional file must not be mistaken for it.
    let o = sgtool(&["eval", "--unused-flag", "value", f, "0.5"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("= 1.0000000000"), "{}", stdout(&o));

    // 1-d grids take bare-number points (no comma).
    let o = sgtool(&["eval", f, "0.25"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("u(0.25)"));

    std::fs::remove_file(&file).ok();
}

#[test]
fn render_writes_a_valid_ppm() {
    let file = temp_path("render.sgc");
    let img = temp_path("render.ppm");
    let f = file.to_str().unwrap();
    let o = sgtool(&[
        "compress",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "gaussian",
        "--out",
        f,
    ]);
    assert!(o.status.success());

    let o = sgtool(&[
        "render",
        f,
        "--out",
        img.to_str().unwrap(),
        "--axes",
        "0,2",
        "--width",
        "32",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let bytes = std::fs::read(&img).unwrap();
    assert!(bytes.starts_with(b"P6\n32 32\n255\n"));
    assert_eq!(bytes.len(), b"P6\n32 32\n255\n".len() + 32 * 32 * 3);
    // The Gaussian peaks in the centre: the centre pixel must be brighter
    // (more yellow/red channel) than the corner.
    let pix = |row: usize, col: usize| {
        let off = b"P6\n32 32\n255\n".len() + (row * 32 + col) * 3;
        bytes[off] as u32 + bytes[off + 1] as u32 + bytes[off + 2] as u32
    };
    assert!(pix(16, 16) > pix(0, 0), "centre must out-shine the corner");

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&img).ok();
}

#[test]
fn metrics_json_flag_writes_a_telemetry_report() {
    let file = temp_path("metrics.sgc");
    let metrics = temp_path("metrics.json");
    let f = file.to_str().unwrap();
    let m = metrics.to_str().unwrap();

    // The flag is global: it may appear before the subcommand arguments.
    let o = sgtool(&[
        "compress",
        "--metrics-json",
        m,
        "--dims",
        "3",
        "--level",
        "5",
        "--function",
        "parabola",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    let text = std::fs::read_to_string(&metrics).unwrap();
    let report = sg_json::parse(&text).expect("metrics file must be valid JSON");
    let counters = report
        .get("counters")
        .expect("report has a counters section");
    let idx2gp = counters
        .get("core.bijection.idx2gp_calls")
        .and_then(|v| v.as_f64())
        .expect("idx2gp call counter present");
    assert!(
        idx2gp > 0.0,
        "compressing a grid must exercise the bijection"
    );
    assert!(report.get("spans").is_some(), "report has a spans section");
    assert!(
        report.get("histograms").is_some(),
        "report has a histograms section"
    );
    let prov = report.get("provenance").expect("report carries provenance");
    assert!(prov.get("timestamp_utc").and_then(|v| v.as_str()).is_some());
    assert!(prov.get("threads").and_then(|v| v.as_f64()).is_some());
    assert!(
        report.get("regions").is_some(),
        "report has a regions section"
    );

    // Commands that fail must not write a metrics file.
    let bogus = temp_path("metrics-bogus.json");
    let o = sgtool(&[
        "info",
        "/nonexistent/grid.sgc",
        "--metrics-json",
        bogus.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(!bogus.exists(), "no metrics on failure");

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn unknown_sg_kernel_is_a_usage_error_not_a_panic() {
    let o = sgtool_env(&["help"], &[("SG_KERNEL", "bogus")]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    let e = stderr(&o);
    assert!(
        e.contains("SG_KERNEL") && e.contains("bogus"),
        "error must name the variable and the bad value: {e}"
    );
    // A structurally valid but unavailable ISA is also a clean exit 2.
    let absent = if cfg!(target_arch = "x86_64") {
        "neon"
    } else {
        "avx2"
    };
    let o = sgtool_env(&["help"], &[("SG_KERNEL", absent)]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    assert!(stderr(&o).contains("not available"), "{}", stderr(&o));
}

#[test]
fn sg_kernel_selection_is_honored_and_stamped_into_provenance() {
    let file = temp_path("kernel-prov.sgc");
    let f = file.to_str().unwrap();
    let base = [
        "compress",
        "--dims",
        "3",
        "--level",
        "5",
        "--function",
        "parabola",
        "--out",
        f,
    ];

    // Forced scalar: accepted everywhere, stamped verbatim.
    let metrics = temp_path("kernel-prov-scalar.json");
    let m = metrics.to_str().unwrap();
    let mut args = base.to_vec();
    args.extend_from_slice(&["--metrics-json", m]);
    let o = sgtool_env(&args, &[("SG_KERNEL", "scalar")]);
    assert!(o.status.success(), "{}", stderr(&o));
    let report = sg_json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        report["provenance"]["kernel"].as_str(),
        Some("scalar"),
        "provenance must record the forced kernel"
    );
    std::fs::remove_file(&metrics).ok();

    // Auto (default): the stamp is whatever the host dispatched — one of
    // the known kernel names, and on x86-64 with AVX2 specifically avx2.
    let metrics = temp_path("kernel-prov-auto.json");
    let m = metrics.to_str().unwrap();
    let mut args = base.to_vec();
    args.extend_from_slice(&["--metrics-json", m]);
    let o = sgtool_env(&args, &[("SG_KERNEL", "auto")]);
    assert!(o.status.success(), "{}", stderr(&o));
    let report = sg_json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let kernel = report["provenance"]["kernel"].as_str().unwrap().to_string();
    assert!(
        ["scalar", "avx2", "neon"].contains(&kernel.as_str()),
        "unexpected kernel stamp {kernel:?}"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        assert_eq!(kernel, "avx2", "AVX2 host must auto-dispatch avx2");
    }
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&file).ok();
}

#[test]
fn profile_emits_valid_trace_and_summary() {
    let trace = temp_path("profile-trace.json");
    let t = trace.to_str().unwrap();
    let workers = 2u64;

    let o = Command::new(env!("CARGO_BIN_EXE_sgtool"))
        .args([
            "profile", "--dims", "3", "--level", "4", "--points", "256", "--out", t,
        ])
        .env("SG_PAR_THREADS", workers.to_string())
        .output()
        .expect("failed to run sgtool");
    assert!(o.status.success(), "{}", stderr(&o));

    // Summary must expose the load-imbalance diagnosis.
    let s = stdout(&o);
    assert!(s.contains("imbalance"), "{s}");
    assert!(s.contains("latency histograms"), "{s}");

    // The trace file is valid Trace Event Format: complete events with
    // ph/ts/dur/tid, at least one per worker thread and the coordinator.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = sg_json::parse(&text).expect("trace file must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty());
    let mut tids_seen = std::collections::BTreeSet::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"), "{ev:?}");
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts present");
        let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur present");
        assert!(ts >= 0.0 && dur >= 0.0);
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid present") as u64;
        assert!(tid <= workers, "tid {tid} out of range");
        tids_seen.insert(tid);
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
    }
    for tid in 0..=workers {
        assert!(tids_seen.contains(&tid), "no events for thread {tid}");
    }

    // The sg metadata key carries regions and provenance.
    let sg = doc.get("sg").expect("sg metadata present");
    assert!(sg.get("provenance").is_some());
    let regions = sg.get("regions").and_then(|r| r.as_object()).unwrap();
    assert!(!regions.is_empty(), "regions report must not be empty");
    for (key, stat) in regions {
        assert!(
            stat.get("imbalance").and_then(|v| v.as_f64()).is_some(),
            "region {key} lacks an imbalance ratio"
        );
    }

    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_failure_writes_no_trace() {
    let trace = temp_path("profile-bad.json");
    let o = sgtool(&[
        "profile",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "nope",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown function"));
    assert!(!trace.exists(), "no trace on failure");
}

#[test]
fn help_prints_usage() {
    let o = sgtool(&["--help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage:"));
}

fn exit_code(o: &Output) -> i32 {
    o.status.code().expect("sgtool terminated by signal")
}

#[test]
fn exit_codes_are_pinned() {
    // 2 — usage errors: bad invocation, not bad data.
    assert_eq!(exit_code(&sgtool(&[])), 2);
    assert_eq!(exit_code(&sgtool(&["frobnicate"])), 2);
    assert_eq!(exit_code(&sgtool(&["checkpoint"])), 2, "missing --out");
    assert_eq!(exit_code(&sgtool(&["restore"])), 2, "missing snapshot");
    assert_eq!(exit_code(&sgtool(&["verify"])), 2, "missing snapshot");
    assert_eq!(exit_code(&sgtool(&["eval"])), 2, "missing grid file");

    // A shape whose point count overflows u64 is a diagnostic, not a
    // panic (regression for the old `expect("grid point count overflows
    // u64")` path).
    let o = sgtool(&[
        "compress",
        "--dims",
        "60",
        "--level",
        "31",
        "--out",
        "/tmp/never.sgc",
    ]);
    assert_eq!(exit_code(&o), 2, "{}", stderr(&o));
    assert!(stderr(&o).contains("grid too large"), "{}", stderr(&o));

    // 4 — the operating system failed us.
    assert_eq!(exit_code(&sgtool(&["info", "/nonexistent/grid.sgc"])), 4);
    assert_eq!(exit_code(&sgtool(&["verify", "/nonexistent/snap"])), 4);
    assert_eq!(
        exit_code(&sgtool(&[
            "restore",
            "/nonexistent/snap",
            "--out",
            "/tmp/x"
        ])),
        4
    );

    // 3 — corrupt data, with a one-line stderr diagnostic.
    let file = temp_path("pinned-corrupt.sgc");
    std::fs::write(&file, b"this is not a grid file").unwrap();
    let o = sgtool(&["info", file.to_str().unwrap()]);
    assert_eq!(exit_code(&o), 3);
    let err = stderr(&o);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic, got: {err}");
    assert!(err.starts_with("sgtool: "), "{err}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn checkpoint_restore_verify_flow() {
    let snap = temp_path("flow.sgcs");
    let plain = temp_path("flow.sgc");
    let restored = temp_path("flow-restored.sgc");
    let s = snap.to_str().unwrap();
    let p = plain.to_str().unwrap();
    let r = restored.to_str().unwrap();

    // Checkpoint straight from a function.
    let o = sgtool(&[
        "checkpoint",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "gaussian",
        "--out",
        s,
        "--provenance",
        "cli-test",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Pristine snapshot: verify exits 0 and reports every section intact.
    let o = sgtool(&["verify", s]);
    assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("all 4 sections intact"), "{out}");
    assert!(out.contains("cli-test"), "provenance surfaced: {out}");

    // Snapshots are first-class grid files: info/eval sniff the format.
    let o = sgtool(&["info", s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("points         : 111"));

    // Restore the intact snapshot to SGC1 and cross-check against a
    // direct compress of the same function: bitwise identical.
    let o = sgtool(&["restore", s, "--out", r]);
    assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
    let o = sgtool(&[
        "compress",
        "--dims",
        "3",
        "--level",
        "4",
        "--function",
        "gaussian",
        "--out",
        p,
    ]);
    assert!(o.status.success());
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&plain).unwrap(),
        "restore must reproduce the directly-compressed grid bitwise"
    );

    // Damage one section: verify and bare restore exit 3 naming the lost
    // group; restore --function rebuilds it exactly.
    let mut bytes = std::fs::read(&snap).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x20; // lands in a section payload
    std::fs::write(&snap, &bytes).unwrap();

    let o = sgtool(&["verify", s]);
    assert_eq!(exit_code(&o), 3, "{}", stderr(&o));
    assert!(stderr(&o).contains("level groups"), "{}", stderr(&o));

    let o = sgtool(&["restore", s, "--out", r]);
    assert_eq!(exit_code(&o), 3, "{}", stderr(&o));
    assert!(stderr(&o).contains("lost"), "{}", stderr(&o));

    let o = sgtool(&["restore", s, "--out", r, "--function", "gaussian"]);
    assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
    assert!(stdout(&o).contains("rebuilding lost level groups"));
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&plain).unwrap(),
        "repair must be bitwise exact"
    );

    // Checkpointing an existing SGC1 file round-trips too.
    let o = sgtool(&["checkpoint", p, "--out", s]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = sgtool(&["verify", s]);
    assert_eq!(exit_code(&o), 0);

    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&restored).ok();
}

/// Run `sgtool fuzz --campaign <spec> --faults <n>` (no differential or
/// schedule pass) and return its `campaigns` JSON section.
fn fuzz_campaign(spec: &str, faults: &str, file: &str) -> (String, sg_json::Value) {
    let json = temp_path(file);
    let o = sgtool(&[
        "fuzz",
        "--budget-cases",
        "0",
        "--sched-interleavings",
        "0",
        "--campaign",
        spec,
        "--faults",
        faults,
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let doc = sg_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    std::fs::remove_file(&json).ok();
    let campaigns = doc.get("campaigns").expect("campaigns section").clone();
    (stdout(&o), campaigns)
}

/// The shared field set every campaign section carries; returns
/// `(full, partial, clean)` after checking they account for `cases` and
/// that there were no violations.
fn check_campaign_section(c: &sg_json::Value, cases: f64, classes: usize) -> [f64; 3] {
    let num = |k: &str| {
        c.get(k)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{k}"))
    };
    assert_eq!(num("cases"), cases);
    assert!(num("elapsed_secs") >= 0.0);
    assert!(c.get("seed_base").and_then(|v| v.as_str()).is_some());
    let arms = [
        num("full_recoveries"),
        num("partial_recoveries"),
        num("clean_errors"),
    ];
    assert_eq!(arms.iter().sum::<f64>(), cases, "every fault accounted for");
    let violations = c.get("violations").and_then(|v| v.as_array()).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    let per_class = c.get("per_class").and_then(|v| v.as_object()).unwrap();
    assert_eq!(per_class.len(), classes);
    let injected: f64 = per_class.iter().map(|(_, v)| v.as_f64().unwrap()).sum();
    assert_eq!(injected, cases);
    assert!(c.get("counters").and_then(|v| v.as_object()).is_some());
    arms
}

#[test]
fn fuzz_snapshot_faults_writes_schema_complete_report() {
    let (out, campaigns) = fuzz_campaign("snapshot", "21", "snapfault.json");
    assert!(out.contains("snapshot: 21 injected"), "{out}");
    let sf = campaigns.get("snapshot").expect("snapshot section");
    check_campaign_section(sf, 21.0, 8);

    // A class filter pins every case to that class.
    let (_, campaigns) = fuzz_campaign("snapshot:bit-flip", "3", "snapfault-class.json");
    let per_class = campaigns.get("snapshot").unwrap().get("per_class").unwrap();
    assert_eq!(
        per_class.get("bit-flip").and_then(|v| v.as_f64()),
        Some(3.0)
    );
    assert_eq!(
        per_class.get("truncate").and_then(|v| v.as_f64()),
        Some(0.0)
    );

    // Campaign selection errors are usage errors.
    let fuzz = |extra: &[&str]| {
        let mut args = vec!["fuzz", "--budget-cases", "0", "--sched-interleavings", "0"];
        args.extend_from_slice(extra);
        exit_code(&sgtool(&args))
    };
    assert_eq!(fuzz(&["--campaign", "nope", "--faults", "1"]), 2);
    assert_eq!(fuzz(&["--campaign", "snapshot:nope", "--faults", "1"]), 2);
    assert_eq!(fuzz(&["--campaign", "snapshot"]), 2);
    assert_eq!(fuzz(&["--faults", "1"]), 2);
}

#[test]
fn fuzz_combination_faults_writes_schema_complete_report() {
    let (out, campaigns) = fuzz_campaign("combination", "30", "combfault.json");
    assert!(out.contains("combination: 30 injected"), "{out}");
    let cf = campaigns.get("combination").expect("combination section");
    // 8 storage classes + task-panic + dropped-pre-commit.
    check_campaign_section(cf, 30.0, 10);
    let counters = cf.get("counters").unwrap();
    let recompute = counters.get("recompute").and_then(|v| v.as_f64()).unwrap();
    let reweight = counters.get("reweight").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(recompute + reweight, 30.0, "every case has a policy");
    assert!(recompute > 0.0 && reweight > 0.0, "both policies exercised");
}

#[test]
fn combine_run_cross_validates_and_verify_reads_the_manifest() {
    let manifest = temp_path("combine.sgcm");
    let json = temp_path("combine.json");
    let m = manifest.to_str().unwrap();
    let j = json.to_str().unwrap();

    // Clean run under each policy: cross-validation passes, the JSON
    // report is schema-complete, and the published manifest verifies.
    for policy in ["recompute", "reweight"] {
        let o = sgtool(&[
            "combine",
            "run",
            "--dims",
            "3",
            "--level",
            "4",
            "--function",
            "sine-product",
            "--policy",
            policy,
            "--queries",
            "64",
            "--out",
            m,
            "--json",
            j,
        ]);
        assert_eq!(exit_code(&o), 0, "policy={policy}: {}", stderr(&o));
        let out = stdout(&o);
        assert!(out.contains("outcome Clean"), "{out}");
        assert!(out.contains("cross-validation"), "{out}");
        assert!(out.contains("— ok"), "{out}");

        let doc = sg_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("cross_validated").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            doc.get("policy").and_then(|v| v.as_str()),
            Some(policy),
            "policy stamped into the report"
        );
        assert_eq!(doc.get("outcome").and_then(|v| v.as_str()), Some("clean"));
        let diff = doc.get("max_abs_diff").and_then(|v| v.as_f64()).unwrap();
        let tol = doc.get("tolerance").and_then(|v| v.as_f64()).unwrap();
        assert!(diff <= tol, "{diff} > {tol}");
        assert!(doc.get("provenance").is_some(), "report carries provenance");

        let o = sgtool(&["combine", "verify", m]);
        assert_eq!(exit_code(&o), 0, "{}", stderr(&o));
        assert!(stdout(&o).contains("components intact"), "{}", stdout(&o));
    }

    // A damaged manifest is corrupt data (3) with the lost components
    // named; a missing one is an I/O failure (4); bad flags are usage
    // errors (2).
    let mut bytes = std::fs::read(&manifest).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x10;
    std::fs::write(&manifest, &bytes).unwrap();
    let o = sgtool(&["combine", "verify", m]);
    assert_eq!(exit_code(&o), 3, "{}", stderr(&o));
    assert!(stderr(&o).contains("damaged"), "{}", stderr(&o));

    assert_eq!(
        exit_code(&sgtool(&["combine", "verify", "/nonexistent"])),
        4
    );
    assert_eq!(exit_code(&sgtool(&["combine"])), 2);
    assert_eq!(exit_code(&sgtool(&["combine", "frobnicate"])), 2);
    assert_eq!(exit_code(&sgtool(&["combine", "run", "--level", "3"])), 2);
    assert_eq!(
        exit_code(&sgtool(&[
            "combine", "run", "--dims", "2", "--level", "3", "--policy", "hope"
        ])),
        2
    );

    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&json).ok();
}

/// Write a BENCH trajectory file with `n` runs of the given p50s, in the
/// exact shape `sg_bench::trajectory::record_run` produces.
fn write_trajectory(dir: &std::path::Path, name: &str, p50s: &[f64]) {
    std::fs::create_dir_all(dir).unwrap();
    let runs: Vec<String> = p50s
        .iter()
        .enumerate()
        .map(|(i, p50)| {
            format!(
                r#"{{"provenance": {{"timestamp_utc": "2026-08-08T00:{i:02}:00Z",
                     "threads": 4, "git_sha": "test"}},
                    "metrics": {{"d5/compact/hierarchize_s":
                      {{"count": 5, "p50_s": {p50}, "p90_s": {p50}, "p99_s": {p50},
                        "min_s": {p50}, "max_s": {p50}}}}}}}"#
            )
        })
        .collect();
    std::fs::write(
        dir.join(format!("BENCH_{name}.json")),
        format!(
            "{{\"experiment\": \"{name}\", \"runs\": [{}]}}\n",
            runs.join(",")
        ),
    )
    .unwrap();
}

#[test]
fn gate_passes_clean_catches_regression_and_honors_baseline_override() {
    let dir = temp_path("gate-results");
    let results = dir.to_str().unwrap();

    // Eight statistically-quiet runs: within the band, exit 0.
    let clean: Vec<f64> = (0..8).map(|i| 1.0e-3 + (i % 3) as f64 * 1.0e-6).collect();
    write_trajectory(&dir, "fig9", &clean);
    let o = sgtool(&["gate", "fig9", "--results", results]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("perf gate passed"), "{}", stdout(&o));

    // A 10x-slower newest run breaches the band: exit 1 with a one-line
    // REGRESSION diagnosis naming the metric.
    let mut regressed = clean.clone();
    regressed.push(1.0e-2);
    write_trajectory(&dir, "fig9", &regressed);
    let json = dir.join("gate.json");
    let o = sgtool(&[
        "gate",
        "fig9",
        "--results",
        results,
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&o), 1);
    assert!(
        stdout(&o).contains("REGRESSION d5/compact/hierarchize_s"),
        "{}",
        stdout(&o)
    );
    assert_eq!(stderr(&o).lines().count(), 1, "{}", stderr(&o));
    assert!(stderr(&o).contains("perf gate failed"), "{}", stderr(&o));
    let doc = sg_json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(doc["passed"], false);
    let exps = doc["experiments"].as_array().unwrap();
    assert_eq!(exps.len(), 1);

    // SG_GATE_BASELINE acknowledges the shift: reported but exit 0.
    let o = sgtool_env(
        &["gate", "fig9", "--results", results],
        &[("SG_GATE_BASELINE", "1")],
    );
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(
        stdout(&o).contains("SG_GATE_BASELINE set"),
        "{}",
        stdout(&o)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_short_history_passes_and_bad_inputs_use_pinned_exit_codes() {
    let dir = temp_path("gate-short");
    let results = dir.to_str().unwrap();

    // Under min-runs the gate must not engage, even on a wild newest run.
    write_trajectory(&dir, "young", &[1.0e-3, 1.0e-3, 5.0]);
    let o = sgtool(&["gate", "young", "--results", results]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("skip"), "{}", stdout(&o));

    // No experiment names: usage (2). Missing file: I/O (4). A
    // trajectory that is not valid JSON: corrupt data (3).
    assert_eq!(exit_code(&sgtool(&["gate"])), 2);
    assert_eq!(
        exit_code(&sgtool(&["gate", "absent", "--results", results])),
        4
    );
    std::fs::write(dir.join("BENCH_mangled.json"), "{\"runs\": [tru").unwrap();
    let o = sgtool(&["gate", "mangled", "--results", results]);
    assert_eq!(exit_code(&o), 3);
    assert_eq!(stderr(&o).lines().count(), 1, "{}", stderr(&o));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_from_summarizes_a_trace_and_rejects_malformed_ones() {
    let trace = temp_path("from-trace.json");
    let t = trace.to_str().unwrap();
    let o = sgtool(&[
        "profile", "--dims", "4", "--level", "4", "--points", "64", "--out", t,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Summarizing the file we just wrote works offline.
    let o = sgtool(&["profile", "--from", t]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("events"), "{s}");
    assert!(s.contains("workload: d=4 level=4"), "{s}");

    // A truncated trace is a *usage* error — pinned exit 2 — with a
    // single-line diagnostic.
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::write(&trace, &text[..text.len() / 2]).unwrap();
    let o = sgtool(&["profile", "--from", t]);
    assert_eq!(exit_code(&o), 2);
    let err = stderr(&o);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic, got: {err}");
    assert!(err.starts_with("sgtool: malformed trace"), "{err}");

    // Valid JSON of the wrong shape is equally malformed.
    std::fs::write(&trace, "{\"not\": \"a trace\"}\n").unwrap();
    let o = sgtool(&["profile", "--from", t]);
    assert_eq!(exit_code(&o), 2);
    assert!(stderr(&o).contains("no traceEvents"), "{}", stderr(&o));

    // And a missing file stays an I/O error, not usage.
    assert_eq!(
        exit_code(&sgtool(&["profile", "--from", "/nonexistent/trace.json"])),
        4
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn flight_records_a_self_describing_timeseries() {
    let out = temp_path("flight.json");
    let f = out.to_str().unwrap();
    let o = sgtool(&[
        "flight",
        "--dims",
        "5",
        "--level",
        "5",
        "--reps",
        "2",
        "--points",
        "512",
        "--interval-ms",
        "1",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("frames"), "{}", stdout(&o));

    let doc = sg_json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let schema = doc["schema"].as_array().expect("schema array");
    assert!(!schema.is_empty());
    for col in schema {
        assert!(col["name"].as_str().is_some(), "column without name");
        let kind = col["kind"].as_str().unwrap();
        assert!(
            ["counter", "span", "histogram"].contains(&kind),
            "unknown kind {kind}"
        );
        let unit = col["unit"].as_str().unwrap();
        assert!(
            ["count", "ns", "bytes"].contains(&unit),
            "unknown unit {unit}"
        );
    }
    // The workload's own instruments made it into the schema.
    assert!(
        schema
            .iter()
            .any(|c| c["name"].as_str() == Some("core.hierarchize.bytes_moved")),
        "hierarchize counter missing from schema"
    );
    let frames = doc["frames"].as_array().expect("frames array");
    assert!(!frames.is_empty(), "no frames recorded");
    for fr in frames {
        assert!(fr["t_ns"].as_f64().is_some());
        assert_eq!(fr["values"].as_array().unwrap().len(), schema.len());
    }
    assert!(doc["workload"]["interval_ms"].as_f64().is_some());
    assert!(!doc["provenance"].is_null());
    std::fs::remove_file(&out).ok();
}

#[test]
fn divergence_reports_per_group_data_with_correlation() {
    let out = temp_path("divergence.json");
    let f = out.to_str().unwrap();
    let o = sgtool(&[
        "divergence",
        "--dims",
        "4",
        "--level",
        "5",
        "--points",
        "256",
        "--machine",
        "tiny",
        "--top",
        "2",
        "--out",
        f,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let s = stdout(&o);
    assert!(s.contains("correlation r="), "{s}");
    assert!(s.contains("top 2 divergent groups"), "{s}");

    let doc = sg_json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for phase in ["hierarchize", "evaluate"] {
        let p = &doc[phase];
        let r = p["correlation"].as_f64().expect("correlation number");
        assert!((-1.0..=1.0).contains(&r), "{phase} r={r}");
        let groups = p["groups"].as_array().unwrap();
        assert_eq!(groups.len(), 5, "{phase}: one entry per level group");
        for g in groups {
            assert!(g["predicted_dram_lines"].as_f64().is_some());
            assert!(g["measured_ns"].as_f64().is_some());
            assert!(g["residual_ns"].as_f64().is_some());
        }
        // The measured half is real: the biggest group took nonzero time.
        assert!(
            groups[4]["measured_ns"].as_f64().unwrap() > 0.0,
            "{phase}: top group unmeasured"
        );
    }
    assert!(!doc["top_divergent"].as_array().unwrap().is_empty());
    // Unknown machines are usage errors.
    assert_eq!(
        exit_code(&sgtool(&["divergence", "--machine", "cray-1"])),
        2
    );
    std::fs::remove_file(&out).ok();
}
