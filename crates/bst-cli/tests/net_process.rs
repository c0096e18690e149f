//! Process-level drills for the socket transport: real `bst worker` OS
//! processes over loopback UDS — a result streamed back as several `Result`
//! frames, one worker SIGKILLed mid-broadcast, and workers that never dial
//! in. The failure modes must surface as typed errors or a completed
//! degraded run — never a hang.

use bst_cli::{launch_config, run_launch};
use bst_contract::error::BstError;
use bst_net::codec::{Ctl, Msg};
use bst_net::socket::{read_msg, write_msg};
use bst_net::worker::RESULT_CHUNK_BYTES;
use bst_net::{launch, LaunchConfig, NetError, Transport};
use bst_tile::Tile;
use std::time::{Duration, Instant};

/// A small problem keeps each fleet run to a few seconds without making
/// the A broadcast trivial: at `-n 4` the ranks form a 1x4 grid, so an A
/// tile's owner sends it to up to three ranks.
const PROBLEM: &str = "64x320x320:0.6";

fn parse(args: &[&str]) -> bst_cli::Cli {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    bst_cli::parse(&args).expect("test CLI parses")
}

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_bst").to_string(), "worker".into()]
}

/// A C of ≈ 2.6 MB leaves rank 0 as at least three ≈ 1 MiB `Result` frames;
/// the launcher must append them all, and the assembled matrix must be
/// bit-identical to the channel run's.
#[test]
fn multi_frame_result_assembles_bit_identically() {
    let cli = parse(&["launch", "--synthetic", "256x1280x1280:0.5", "-n", "2"]);
    let lc = launch_config(&cli, worker_cmd()).expect("launch config");
    let report = run_launch(&cli, &lc).expect("clean run completes");
    // A frame closes once it holds a chunk, so it overshoots by < 1 tile.
    let tile_bytes = || report.outcome.tiles.iter().map(|(_, _, t)| t.stored_bytes());
    let (c_bytes, largest) = (tile_bytes().sum::<u64>(), tile_bytes().max().unwrap());
    assert!(
        c_bytes > 2 * (RESULT_CHUNK_BYTES + largest),
        "C ({c_bytes} B, largest tile {largest} B) must not fit two Result frames"
    );
    assert_eq!(report.outcome.tiles.len(), report.c_ref.num_tiles());
    assert_eq!(report.c.num_tiles(), report.c_ref.num_tiles(), "a frame's tiles were lost");
    assert_eq!(report.max_diff, 0.0);
    assert_eq!(report.outcome.attempts, 1);
}

/// The protocol step itself, against a scripted rank 0: the spawned
/// "worker" is a shell that only records its argv, and a thread here dials
/// the launcher in its place and answers `Start` with `Result`, `Result`,
/// `Done`. The launcher must keep both frames' tiles, in order.
#[cfg(unix)]
#[test]
fn launcher_appends_every_result_frame() {
    let argv_file = std::env::temp_dir().join(format!("bst-net-argv-{}", std::process::id()));
    let _ = std::fs::remove_file(&argv_file);
    let script = format!(
        "printf '%s\\n' \"$@\" > {0}.tmp && mv {0}.tmp {0}",
        argv_file.to_string_lossy()
    );
    let lc = LaunchConfig::new(
        1,
        Transport::Uds,
        vec!["sh".into(), "-c".into(), script, "sh".into()],
        "scripted".into(),
    );
    let first = (0, 1, Tile::from_data(1, 2, vec![1.0, 2.0]));
    let second = (3, 4, Tile::from_factors(2, 2, vec![0.5, -1.0], vec![4.0, 8.0], 1));
    let frames = [vec![first.clone()], vec![second.clone()]];

    let outcome = std::thread::scope(|s| {
        s.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(30);
            let argv = loop {
                match std::fs::read_to_string(&argv_file) {
                    Ok(argv) => break argv,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Err(e) => panic!("the scripted worker never recorded its argv: {e}"),
                }
            };
            let _ = std::fs::remove_file(&argv_file);
            let mut args = argv.lines();
            args.find(|a| *a == "--connect").expect("--connect in worker argv");
            let mut conn = Transport::Uds.dial(args.next().expect("control address")).unwrap();
            let send = |conn: &mut _, ctl| write_msg(conn, &Msg::Ctl(ctl)).expect("control write");
            send(&mut conn, Ctl::Hello { rank: 0, addr: "unused".into() });
            assert!(matches!(read_msg(&mut conn), Ok(Some(Msg::Ctl(Ctl::Config(_))))));
            send(&mut conn, Ctl::Ready { rank: 0 });
            assert!(matches!(read_msg(&mut conn), Ok(Some(Msg::Ctl(Ctl::Start)))));
            for tiles in frames {
                send(&mut conn, Ctl::Result { tiles });
            }
            send(&mut conn, Ctl::Done { rank: 0, sent_msgs: 0, recv_msgs: 0 });
        });
        launch(&lc)
    })
    .expect("scripted fleet completes");
    assert_eq!(outcome.tiles, [first, second]);
    assert_eq!(outcome.attempts, 1);
}

/// Kill a worker after its *first* data-frame send: on the 1x4 grid the
/// dying rank is mid-way through its `BcastA` duties (its sends to the
/// other three ranks still pending), so peers are left waiting on deliveries
/// that will never come. The launcher must detect the death (EOF or missed
/// heartbeat), respawn the fleet with the rank written off, and the
/// degraded re-plan must agree with the fault-free reference.
#[test]
fn worker_killed_mid_broadcast_recovers_degraded() {
    let cli = parse(&[
        "launch",
        "--synthetic",
        PROBLEM,
        "-n",
        "4",
        "--kill",
        "1",
        "--die-after",
        "1",
    ]);
    let lc = launch_config(&cli, worker_cmd()).expect("launch config");
    let report = run_launch(&cli, &lc).expect("degraded run completes");
    assert_eq!(
        report.outcome.recovered_dead,
        Some(1),
        "rank 1 should have died and been written off"
    );
    assert_eq!(report.outcome.attempts, 2, "one clean attempt + one recovery rerun");
    assert!(
        report.max_diff <= 1e-10,
        "degraded run disagrees with the fault-free reference: {:.3e}",
        report.max_diff
    );
}

/// A worker that never dials in (no `Hello` ever arrives) must trip the
/// launcher's connect window as a typed
/// `NetError::ConnectTimeout` carrying the honest head-count — not hang
/// and not panic.
#[test]
fn launcher_times_out_on_silent_workers() {
    let cli = parse(&["launch", "--synthetic", PROBLEM, "-n", "2"]);
    // `sleep` balks at the appended `--rank ... --connect ...` argv and
    // exits at once — either way no `Hello` ever reaches the launcher,
    // which is the condition under test.
    let mut lc = launch_config(&cli, vec!["sleep".into(), "30".into()]).expect("launch config");
    lc.connect_timeout = Duration::from_secs(2);
    match launch(&lc) {
        Err(NetError::ConnectTimeout { expected, connected }) => {
            assert_eq!(expected, 2);
            assert_eq!(connected, 0, "no silent worker should count as connected");
        }
        Ok(_) => panic!("launch succeeded with workers that never connected"),
        Err(e) => panic!("expected ConnectTimeout, got {e}"),
    }
}

/// The same timeout must surface through the CLI error plumbing
/// (`BstError::Net`) when driven via `run_launch`, so `bst launch` exits
/// with a rendered diagnostic instead of an unwrap.
#[test]
fn connect_timeout_surfaces_as_bst_error() {
    let cli = parse(&["launch", "--synthetic", PROBLEM, "-n", "2"]);
    let mut lc = launch_config(&cli, vec!["sleep".into(), "30".into()]).expect("launch config");
    lc.connect_timeout = Duration::from_secs(2);
    match run_launch(&cli, &lc) {
        Err(BstError::Net(NetError::ConnectTimeout { .. })) => {}
        Ok(_) => panic!("run_launch succeeded with workers that never connected"),
        Err(e) => panic!("expected BstError::Net(ConnectTimeout), got {e}"),
    }
}
