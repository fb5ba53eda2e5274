//! Shard-archetype chaos campaign: one seed, one in-process daemon, one
//! sharded explore campaign, and the self-healing contract asserted end
//! to end.
//!
//! The `shard.*` faults (`shard.worker`, `shard.renew`, `shard.election`,
//! `shard.commit`) land inside the campaign scheduler — worker kills
//! mid-shard, lease-expiry storms, a double-primary epoch contest, the
//! reaper-vs-finisher commit race — so exercising them means standing up
//! a daemon with the plan armed, submitting a sharded campaign, and
//! letting the lease table, the reaper, and (for the contest) a hot
//! standby heal it. Both `hippoctl faultcampaign` and the chaos gate run
//! shard seeds through this helper, enforcing one contract:
//!
//! 1. **Byte identity.** The merged artifact of the faulted multi-worker
//!    campaign equals the sequential single-worker run
//!    ([`crate::shard::run_local`]) byte for byte.
//! 2. **Structured degradation.** Every absorbed failure leaves a journal
//!    record (`LeaseReclaimed`, `Epoch`) — the trail is auditable, never
//!    silent.
//! 3. **No harm.** Single-shot faults heal through retries: nothing is
//!    quarantined, every accepted job reaches a journaled terminal state,
//!    and the daemons drain within a bound (a failure to drain is the
//!    hang this gate exists to catch).

use crate::jobs::{JobKind, JobSpec, JobState, JobView};
use crate::journal::{read_events, JobEvent};
use crate::{Client, ServerConfig};
use std::time::{Duration, Instant};

/// Shard fan-out every chaos campaign runs with. The seeded shard plans
/// ([`pmfault::FaultPlan::from_seed`]) pick their target shards inside
/// this range.
pub const CAMPAIGN_SHARDS: u64 = 4;

/// Runs one shard-archetype seed end to end. `source` is the explore
/// workload the campaign shards; the caller picks it so the CLI gate and
/// the benchmark share one reference shape.
///
/// # Errors
///
/// Any broken contract: a diverged artifact, a missing degradation
/// trail, a quarantined shard, an unfinished accepted job, or a daemon
/// that fails to drain.
pub fn campaign_seed(
    seed: u64,
    source_name: &str,
    source: &str,
    obs: &pmobs::Obs,
) -> Result<String, String> {
    let plan = pmfault::FaultPlan::from_seed(seed);
    if !plan.targets_shard() {
        return Err(format!(
            "seed {seed} plans no shard faults; route it to the matching campaign runner"
        ));
    }
    let contested = plan.targets(pmfault::FaultSite::ShardElection);
    let dir = std::env::temp_dir().join(format!("hippo-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = dir.join("jobs.journal");
    let socket = dir.join("hippod.sock");
    let standby_socket = dir.join("standby.sock");

    let mut spec = JobSpec::new(
        JobKind::Explore,
        vec![(source_name.to_string(), source.to_string())],
    );
    spec.shards = CAMPAIGN_SHARDS;

    // The byte-identity reference: the same campaign, sequential, one
    // worker, no daemon, no faults.
    let reference = crate::shard::run_local(
        &spec,
        &hippocrates::WarmCache::enabled(),
        &pmobs::Obs::default(),
    )?;

    // A short lease TTL makes every injected death heal in milliseconds
    // instead of the production default's seconds.
    let server = {
        let config = ServerConfig {
            socket: socket.clone(),
            journal: Some(journal.clone()),
            workers: 3,
            lease_ttl_ms: 100,
            shard_watchdog_ms: 10_000,
            io_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(10),
            fault: Some(plan.clone()),
            obs: obs.clone(),
            ..ServerConfig::default()
        };
        std::thread::spawn(move || crate::serve(config))
    };
    // The primary binds only after taking the journal's lock. Wait for it
    // before starting the standby, which could otherwise win the lock and
    // refuse the primary.
    let mut c = Client::connect_retry(&socket, Duration::from_secs(5))?;
    // The double-primary contest needs a rival that can actually win:
    // run a fault-free hot standby on its own socket, sharing the
    // journal. (For the other archetypes the single daemon heals alone.)
    let standby = contested.then(|| {
        let config = ServerConfig {
            socket: standby_socket.clone(),
            journal: Some(journal.clone()),
            standby: true,
            workers: 3,
            lease_ttl_ms: 100,
            shard_watchdog_ms: 10_000,
            io_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(10),
            obs: obs.clone(),
            ..ServerConfig::default()
        };
        std::thread::spawn(move || crate::serve(config))
    });

    c.set_io_timeout(Some(Duration::from_secs(10)))?;
    let id = c.submit_retry(spec.clone(), Duration::from_secs(5))?;
    drop(c);

    // Poll to terminal across every socket that might hold the
    // primaryship by now, reconnecting each pass: the epoch contest
    // deposes the original primary mid-campaign, and a poll must follow
    // the job to whoever won, not wedge on the loser.
    let mut sockets = vec![socket.clone()];
    if contested {
        sockets.push(standby_socket.clone());
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let view: JobView = 'done: loop {
        if Instant::now() > deadline {
            return Err(format!(
                "campaign `{id}` did not settle within 120s — that is a hang"
            ));
        }
        for s in &sockets {
            let polled = (|| -> Result<JobView, String> {
                let mut c = Client::connect(s)?;
                c.set_io_timeout(Some(Duration::from_secs(5)))?;
                c.status(&id)
            })();
            if let Ok(v) = polled {
                match v.state {
                    JobState::Queued | JobState::Running => {}
                    _ => break 'done v,
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    if view.state != JobState::Done {
        return Err(format!(
            "campaign ended {:?} instead of healing: {:?}",
            view.state, view.error
        ));
    }
    let result = view.result.ok_or("done campaign carried no result")?;
    if result.output != reference.output || result.clean != reference.clean {
        return Err(
            "faulted campaign artifact diverged from the sequential single-worker run".to_string(),
        );
    }

    // Drain everything, bounded.
    for s in &sockets {
        if let Ok(mut c) = Client::connect(s) {
            let _ = c.set_io_timeout(Some(Duration::from_secs(5)));
            let _ = c.shutdown();
        }
    }
    join_bounded(server, "primary")?;
    if let Some(standby) = standby {
        join_bounded(standby, "standby")?;
    }

    // The journal is the structured degradation trail: audit it.
    let events = read_events(&journal)?;
    let mut reclaims = 0u64;
    let mut quarantined = 0u64;
    let mut epochs = 0u64;
    let mut submitted: Vec<String> = vec![];
    let mut finished: Vec<String> = vec![];
    for ev in &events {
        match ev {
            JobEvent::Submitted { id, .. } => submitted.push(id.clone()),
            JobEvent::Finished { view } => finished.push(view.id.clone()),
            JobEvent::LeaseReclaimed { .. } => reclaims += 1,
            JobEvent::ShardQuarantined { .. } => quarantined += 1,
            JobEvent::Epoch { .. } => epochs += 1,
            _ => {}
        }
    }
    for id in &submitted {
        if !finished.contains(id) {
            return Err(format!(
                "journal audit: `{id}` was accepted but never reached a journaled terminal state"
            ));
        }
    }
    if quarantined != 0 {
        return Err(format!(
            "single-shot faults must heal through retries, yet {quarantined} shard(s) were quarantined"
        ));
    }
    // Every archetype but the epoch contest degrades through the lease
    // table, so the journal must show the reclaim trail; the contest's
    // trail is its epoch records (primary, rival, winner).
    if !contested && reclaims == 0 {
        return Err(
            "the fault fired but the journal shows no degradation trail (no lease reclaims)"
                .to_string(),
        );
    }
    if contested && epochs < 3 {
        return Err(format!(
            "epoch contest must leave >= 3 epoch records (primary, rival, winner); journal has {epochs}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "healed: {reclaims} lease reclaim(s), {epochs} epoch record(s), 0 quarantined, \
         artifact byte-identical to the sequential run"
    ))
}

/// Joins a daemon thread with a deadline: a daemon that cannot drain is
/// a hang, the exact failure mode the chaos gate exists to catch.
fn join_bounded(
    handle: std::thread::JoinHandle<Result<crate::ServeReport, String>>,
    who: &'static str,
) -> Result<(), String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Ok(Ok(_))) => Ok(()),
        Ok(Ok(Err(e))) => Err(format!("{who} daemon exited with error: {e}")),
        Ok(Err(_)) => Err(format!("{who} daemon thread panicked")),
        Err(_) => Err(format!(
            "{who} daemon failed to drain within 30s — that is a hang"
        )),
    }
}
