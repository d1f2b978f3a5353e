//! End-to-end coverage of the live profiler surface: `varuna-profile
//! --follow` tailing a growing JSONL capture, the `--serve` HTTP
//! endpoint, `-` stdin input, `--top` truncation, and malformed or
//! hostile input exit codes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use varuna_obs::{profile, Event, EventKind};

const BIN: &str = env!("CARGO_BIN_EXE_varuna-profile");

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("varuna-follow-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn op(stage: usize, replica: usize, op: char, micro: usize, start: f64, end: f64) -> Event {
    Event::exec(
        end,
        EventKind::OpEnd {
            stage,
            replica,
            op,
            micro,
            start,
        },
    )
}

fn sample_events() -> Vec<Event> {
    vec![
        op(0, 0, 'F', 0, 0.0, 1.0),
        op(1, 0, 'F', 0, 1.0, 2.0),
        op(1, 0, 'B', 0, 2.0, 3.0),
        op(0, 0, 'B', 0, 3.0, 4.0),
        Event::exec(
            4.5,
            EventKind::Allreduce {
                stage: 0,
                bytes: 1e9,
                ring: 2,
                seconds: 0.5,
            },
        ),
        Event::manager(
            5.0,
            EventKind::LostWork {
                minibatches: 1,
                seconds: 0.25,
            },
        ),
    ]
}

fn jsonl(events: &[Event]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&serde_json::to_string(e).expect("event serializes"));
        s.push('\n');
    }
    s
}

fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to --serve endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("http framing");
    (head.to_string(), body.to_string())
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > timeout {
            let _ = child.kill();
            panic!("varuna-profile --follow did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn follow_serves_live_reports_and_finishes_byte_identical_to_posthoc() {
    let dir = scratch("live");
    let capture = dir.join("events.jsonl");
    let out = dir.join("report.json");
    let events = sample_events();

    // Start with the first half of the stream on disk.
    std::fs::write(&capture, jsonl(&events[..3])).expect("seed capture");

    let mut child = Command::new(BIN)
        .arg(capture.to_str().unwrap())
        .args(["--follow", "--serve", "127.0.0.1:0"])
        .args(["--poll-ms", "25", "--idle-exit", "1.5", "--top", "1"])
        .args(["--out", out.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn varuna-profile");

    // The bound address is announced on the first stdout line.
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read serve line");
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("expected serve banner, got {line:?}"))
        .to_string();
    // Drain the rest of stdout in the background so the child never
    // blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("drain stdout");
        rest
    });

    let (head, body) = http_get(&addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("ok"));

    // Append the rest, splitting one line across two writes to exercise
    // the partial-tail buffer.
    let rest = jsonl(&events[3..]);
    let split = rest.len() / 2;
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&capture)
            .expect("append capture");
        f.write_all(&rest.as_bytes()[..split]).expect("half write");
        f.sync_all().expect("sync");
        std::thread::sleep(Duration::from_millis(120));
        f.write_all(&rest.as_bytes()[split..]).expect("other half");
    }

    // The live endpoint converges on the full event count.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (head, body) = http_get(&addr, "/report");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let report: varuna_obs::ProfileReport =
            serde_json::from_str(&body).expect("report endpoint serves valid JSON");
        if report.events == events.len() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "live report stuck at {} of {} events",
            report.events,
            events.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let (head, body) = http_get(&addr, "/downtime");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("lost_work_seconds"), "{body}");
    let (head, body) = http_get(&addr, "/counters");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"late_events\": 0"), "{body}");

    // Idle-exit fires once the capture stops growing.
    let status = wait_with_timeout(&mut child, Duration::from_secs(20));
    assert!(status.success(), "follow mode must exit cleanly: {status}");

    // The written report is byte-identical to `profile()` of the file.
    let written = std::fs::read_to_string(&out).expect("read --out report");
    assert_eq!(
        written,
        profile(&events).to_json(),
        "streamed report must match profile() byte-for-byte"
    );

    // --top 1 truncates the stage table and says so.
    let stdout = drain.join().expect("drain thread");
    assert!(stdout.contains("stage(s) elided"), "stdout:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oneshot_reads_stdin_with_dash() {
    let events = sample_events();
    let mut child = Command::new(BIN)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn varuna-profile");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(jsonl(&events).as_bytes())
        .expect("feed stdin");
    let output = child.wait_with_output().expect("wait");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&format!("{} events", events.len())),
        "stdout:\n{stdout}"
    );
}

#[test]
fn malformed_jsonl_exits_nonzero_with_line_number() {
    let dir = scratch("bad");
    let capture = dir.join("bad.jsonl");
    let events = sample_events();
    let mut text = jsonl(&events[..2]);
    text.push_str("this is not an event\n");
    std::fs::write(&capture, &text).expect("write capture");

    let output = Command::new(BIN)
        .arg(capture.to_str().unwrap())
        .output()
        .expect("run varuna-profile");
    assert!(!output.status.success(), "must exit non-zero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 3"), "stderr:\n{stderr}");

    // Follow mode reports the same line number instead of panicking.
    let output = Command::new(BIN)
        .arg(capture.to_str().unwrap())
        .args(["--follow", "--poll-ms", "10", "--idle-exit", "5"])
        .output()
        .expect("run varuna-profile --follow");
    assert!(!output.status.success(), "must exit non-zero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 3"), "stderr:\n{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stage_beyond_max_stage_exits_nonzero_with_line_number() {
    let dir = scratch("hostile");
    let capture = dir.join("hostile.jsonl");
    let good = jsonl(&sample_events()[..1]);
    for stage in [1usize << 40, usize::MAX] {
        let hostile = jsonl(&[op(stage, 0, 'F', 0, 0.0, 1.0)]);
        std::fs::write(&capture, format!("{good}{hostile}")).expect("write capture");

        let output = Command::new(BIN)
            .arg(capture.to_str().unwrap())
            .output()
            .expect("run varuna-profile");
        assert_eq!(output.status.code(), Some(1), "stage {stage}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("line 2"),
            "stage {stage}, stderr:\n{stderr}"
        );

        let output = Command::new(BIN)
            .arg(capture.to_str().unwrap())
            .args(["--follow", "--poll-ms", "10", "--idle-exit", "5"])
            .output()
            .expect("run varuna-profile --follow");
        assert_eq!(output.status.code(), Some(1), "stage {stage}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("line 2"),
            "stage {stage}, stderr:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_flag_truncates_the_stage_table() {
    let dir = scratch("top");
    let capture = dir.join("events.jsonl");
    std::fs::write(&capture, jsonl(&sample_events())).expect("write capture");
    let output = Command::new(BIN)
        .arg(capture.to_str().unwrap())
        .args(["--top", "1"])
        .output()
        .expect("run varuna-profile");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("1 more stage(s) elided"),
        "stdout:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
