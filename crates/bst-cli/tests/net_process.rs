//! Process-level drills for the socket transport: real `bst worker` OS
//! processes over loopback UDS — every rank's share of C streamed back as
//! several `Result` frames, one worker SIGKILLed mid-broadcast, and workers
//! that never dial in. The failure modes must surface as typed errors or a
//! completed degraded run — never a hang.

use bst_cli::{launch_config, run_launch};
use bst_contract::error::BstError;
use bst_net::codec::{Ctl, Msg};
use bst_net::socket::{read_msg, write_msg};
use bst_net::worker::RESULT_CHUNK_BYTES;
use bst_net::{launch, LaunchConfig, NetError, Transport};
use bst_tile::Tile;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// A C of ≈ 5.2 MB leaves the two ranks as their own shares of ≈ 2.6 MB,
/// each at least three ≈ 1 MiB `Result` frames; the launcher must append
/// them all, and the assembled matrix must be bit-identical to the channel
/// run's.
#[test]
fn multi_frame_result_assembles_bit_identically() {
    let cli = parse(&["launch", "--synthetic", "512x1280x1280:0.5", "-n", "2"]);
    let lc = launch_config(&cli, worker_cmd()).expect("launch config");
    let report = run_launch(&cli, &lc).expect("clean run completes");
    // A frame closes once it holds a chunk, so it overshoots by < 1 tile.
    let largest = report.outcome.tiles.iter().map(|(_, _, t)| t.stored_bytes()).max().unwrap();
    for s in &report.outcome.stats {
        assert!(
            s.c_bytes > 2 * (RESULT_CHUNK_BYTES + largest),
            "rank {}'s C ({} B, largest tile {largest} B) must not fit two Result frames",
            s.rank,
            s.c_bytes
        );
    }
    let returned: u64 = report.outcome.stats.iter().map(|s| s.c_tiles).sum();
    assert_eq!(returned as usize, report.outcome.tiles.len());
    assert_eq!(report.outcome.tiles.len(), report.c_ref.num_tiles());
    assert_eq!(report.c.num_tiles(), report.c_ref.num_tiles(), "a frame's tiles were lost");
    assert_eq!(report.max_diff, 0.0);
    assert_eq!(report.outcome.attempts, 1);
}

/// A fleet of `n` scripted ranks: each spawned "worker" is a shell that only
/// records its argv, and `script(rank, conn)` runs on a thread here in its
/// place, dialed into the launcher and past `Start`. Returns what `lc`'s
/// launch returned; `stop` is raised once it has.
#[cfg(unix)]
fn scripted_fleet<F>(mut lc: LaunchConfig, script: F) -> Result<bst_net::LaunchOutcome, NetError>
where
    F: Fn(usize, &mut bst_net::socket::Conn, &AtomicBool) + Sync,
{
    // One name per fleet: the tests of this file run in parallel.
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let fleet = FLEETS.fetch_add(1, Ordering::Relaxed);
    let argv_file =
        std::env::temp_dir().join(format!("bst-net-argv-{}-{fleet}", std::process::id()));
    let argv_of = |rank: usize| argv_file.with_extension(rank.to_string());
    lc.worker_cmd = vec![
        "sh".into(),
        "-c".into(),
        format!("printf '%s\\n' \"$@\" > {0}.$2.tmp && mv {0}.$2.tmp {0}.$2", argv_file.display()),
        "sh".into(),
    ];
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for rank in 0..lc.n {
            let (argv_file, script, stop) = (argv_of(rank), &script, &stop);
            let _ = std::fs::remove_file(&argv_file);
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(30);
                let argv = loop {
                    match std::fs::read_to_string(&argv_file) {
                        Ok(argv) => break argv,
                        Err(_) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        Err(e) => panic!("scripted rank {rank} never recorded its argv: {e}"),
                    }
                };
                let _ = std::fs::remove_file(&argv_file);
                let mut args = argv.lines();
                args.find(|a| *a == "--connect").expect("--connect in worker argv");
                let addr = args.next().expect("control address");
                let mut conn = Transport::Uds.dial(addr).unwrap();
                let rank64 = rank as u64;
                send(&mut conn, Ctl::Hello { rank: rank64, addr: "unused".into() });
                assert!(matches!(read_msg(&mut conn), Ok(Some(Msg::Ctl(Ctl::Config(_))))));
                send(&mut conn, Ctl::Ready { rank: rank64 });
                assert!(matches!(read_msg(&mut conn), Ok(Some(Msg::Ctl(Ctl::Start)))));
                script(rank, &mut conn, stop);
            });
        }
        let outcome = launch(&lc);
        stop.store(true, Ordering::Relaxed);
        outcome
    })
}

#[cfg(unix)]
fn send(conn: &mut bst_net::socket::Conn, ctl: Ctl) {
    write_msg(conn, &Msg::Ctl(ctl)).expect("control write");
}

/// The protocol step itself, against two scripted ranks that interleave
/// their `Result` frames (each waits for the other's before sending its
/// next), then send `Done`. The launcher must keep every tile of both, each
/// rank's in its connection's order, and attribute each to its sender.
#[cfg(unix)]
#[test]
fn launcher_appends_every_result_frame() {
    let frames = |rank: u32| -> Vec<Vec<(u32, u32, Tile)>> {
        vec![
            vec![(rank, 1, Tile::from_data(1, 2, vec![1.0, 2.0]))],
            vec![(rank, 4, Tile::from_factors(2, 2, vec![0.5, -1.0], vec![4.0, 8.0], 1))],
            vec![(rank, 5, Tile::from_data(1, 1, vec![3.0])), (rank, 6, Tile::zeros(1, 1))],
        ]
    };
    let turn = std::sync::Mutex::new(0usize);
    let lc = LaunchConfig::new(2, Transport::Uds, Vec::new(), "scripted".into());
    let outcome = scripted_fleet(lc, |rank, conn, _| {
        for (step, tiles) in frames(rank as u32).into_iter().enumerate() {
            while *turn.lock().unwrap() != 2 * step + rank {
                std::thread::yield_now();
            }
            send(conn, Ctl::Result { tiles });
            *turn.lock().unwrap() += 1;
        }
        send(conn, Ctl::Done { rank: rank as u64, sent_msgs: 0, recv_msgs: 0 });
    })
    .expect("scripted fleet completes");
    for rank in 0..2u32 {
        let got: Vec<_> = outcome.tiles.iter().filter(|t| t.0 == rank).cloned().collect();
        assert_eq!(got, frames(rank).concat(), "rank {rank}'s tiles, in its order");
        let stats = outcome.stats[rank as usize];
        assert_eq!((stats.rank, stats.c_tiles, stats.c_bytes), (rank as usize, 4, 64));
    }
    assert_eq!(outcome.tiles.len(), 8);
    assert_eq!(outcome.attempts, 1);
}

/// A rank that streams `Result` but never sends `Done` (and answers no
/// heartbeat) is dead, however busy another rank keeps the launcher: rank
/// 1's frames must not count as rank 0's signs of life.
#[cfg(unix)]
#[test]
fn silent_rank_dies_while_another_streams() {
    let mut lc = LaunchConfig::new(2, Transport::Uds, Vec::new(), "scripted".into());
    lc.heartbeat_timeout = Duration::from_millis(400);
    lc.max_respawns = 0;
    let outcome = scripted_fleet(lc, |rank, conn, stop| {
        let tile = |j| vec![(rank as u32, j, Tile::from_data(1, 1, vec![1.0]))];
        send(conn, Ctl::Result { tiles: tile(0) });
        // Rank 0 falls silent; rank 1 streams until the launcher gives up.
        for j in 1.. {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if rank == 1 && write_msg(conn, &Msg::Ctl(Ctl::Result { tiles: tile(j) })).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    match outcome {
        Err(NetError::WorkerDied { rank }) => assert_eq!(rank, 0, "the silent rank dies"),
        Ok(_) => panic!("a rank that never sent Done completed the fleet"),
        Err(e) => panic!("expected WorkerDied, got {e}"),
    }
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
