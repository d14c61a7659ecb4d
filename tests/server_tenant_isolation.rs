//! Tenant isolation under concurrency, storage faults and rate limits.
//!
//! Three claims, each of which is a bullet of the multi-tenancy contract:
//!
//! 1. Namespaces with different shard, width and group-commit knobs ingest
//!    **concurrently** without seeing each other's data.
//! 2. Poisoning one tenant's storage (deterministic fault injection scoped by the
//!    tenant's path token — the same `path=` grammar `GSS_FAULT_PLAN` accepts)
//!    fail-stops that tenant with a typed `0x02xx` error while its neighbour keeps
//!    ingesting and serving.
//! 3. Rate-limiting one tenant leaves another unthrottled.

use gss_core::{install_fault_plan, FaultKind, FaultOp, FaultPlan, FaultSite};
use gss_server::protocol::err;
use gss_server::{ClientError, GssClient, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gss-isolation-{tag}-{}", std::process::id()))
}

fn boot(dir: &Path, config: &str) -> ServerHandle {
    let config = ServerConfig::parse(config).unwrap();
    Server::bind("127.0.0.1:0", dir.to_path_buf(), config, 16).unwrap().spawn().unwrap()
}

#[test]
fn tenants_with_different_settings_ingest_concurrently_and_stay_disjoint() {
    let dir = temp_dir("concurrent");
    std::fs::remove_dir_all(&dir).ok();
    let handle = boot(
        &dir,
        "tenant alpha-t token=a-secret durability=strict shards=2 width=64\n\
         tenant beta-t token=b-secret shards=1 width=128 group_delay_us=0 group_bytes=0",
    );
    let addr = handle.addr();

    let threads: Vec<_> = [("alpha-t", "a-secret", 1000u64), ("beta-t", "b-secret", 2000)]
        .into_iter()
        .map(|(tenant, token, base)| {
            std::thread::spawn(move || {
                let mut client = GssClient::connect(addr).unwrap();
                client.hello(tenant, token).unwrap();
                for round in 0..20u64 {
                    let batch: Vec<_> = (0..10)
                        .map(|i| (base + round * 10 + i, base + round * 10 + i + 1, 1i64))
                        .collect();
                    client.ingest(&batch).unwrap();
                }
                client.stats().unwrap()
            })
        })
        .collect();
    let stats: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(stats[0].items_inserted, 200);
    assert_eq!(stats[1].items_inserted, 200);

    // Each tenant sees its own edges and none of the other's.
    let mut alpha = GssClient::connect(addr).unwrap();
    alpha.hello("alpha-t", "a-secret").unwrap();
    assert!(alpha.edge(1000, 1001).unwrap().is_some());
    assert_eq!(alpha.edge(2000, 2001).unwrap(), None, "tenants share no data");
    let mut beta = GssClient::connect(addr).unwrap();
    beta.hello("beta-t", "b-secret").unwrap();
    assert!(beta.edge(2000, 2001).unwrap().is_some());
    assert_eq!(beta.edge(1000, 1001).unwrap(), None, "tenants share no data");

    // Every tenant acknowledges with the one wire durability byte.
    for client in [&mut alpha, &mut beta] {
        let ack = client.ingest(&[(9000, 9001, 1)]).unwrap();
        assert_eq!(ack.durability, gss_server::protocol::DURABILITY_STRICT);
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoning_one_tenant_leaves_the_other_serving() {
    let dir = temp_dir("poison");
    std::fs::remove_dir_all(&dir).ok();
    // Fail every write aimed at the victim tenant's WAL from the second write on:
    // occurrence 1 is the WAL magic written at create time, so the store opens
    // cleanly and the first ingest commit is the first operation to fault.  The
    // path token is the tenant's shard-0 WAL file name — tenant names are baked
    // into every file name precisely so plans can be scoped this narrowly.
    let sites =
        (2..=64).map(|at| FaultSite { op: FaultOp::Write, kind: FaultKind::Eio, at }).collect();
    let _guard = install_fault_plan(FaultPlan::for_path_token("victim.gss.shard0.wal", sites));

    let handle = boot(
        &dir,
        "tenant victim token=v-secret durability=strict shards=1 width=64\n\
         tenant healthy token=h-secret durability=strict shards=1 width=64",
    );

    let mut victim = GssClient::connect(handle.addr()).unwrap();
    victim.hello("victim", "v-secret").unwrap();
    let code = match victim.ingest(&[(1, 2, 3)]) {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected a typed store error, got {other:?}"),
    };
    assert_eq!(code & 0xFF00, 0x0200, "poisoned store surfaces as a 0x02xx wire code: {code:#06x}");
    // The fail-stop is sticky and typed on every subsequent ingest too …
    match victim.ingest(&[(3, 4, 5)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code & 0xFF00, 0x0200),
        other => panic!("expected sticky poisoning, got {other:?}"),
    }
    // … the connection is still open, queries still answer, and stats confess.
    let stats = victim.stats().expect("poisoned tenant still answers queries");
    assert!(stats.poisoned);

    // The neighbour ingests and serves as if nothing happened.
    let mut healthy = GssClient::connect(handle.addr()).unwrap();
    healthy.hello("healthy", "h-secret").unwrap();
    healthy.ingest(&[(10, 20, 7)]).expect("healthy tenant is unaffected");
    assert_eq!(healthy.edge(10, 20).unwrap(), Some(7));
    let stats = healthy.stats().unwrap();
    assert!(!stats.poisoned);
    assert_eq!(stats.breached_items, 0);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rate_limiting_one_tenant_leaves_the_other_unthrottled() {
    let dir = temp_dir("rate");
    std::fs::remove_dir_all(&dir).ok();
    let handle = boot(
        &dir,
        "tenant limited token=l-secret rate=10 burst=10 width=64\n\
         tenant unmetered token=u-secret width=64",
    );

    let mut limited = GssClient::connect(handle.addr()).unwrap();
    limited.hello("limited", "l-secret").unwrap();
    // Drain the burst (ingest costs one token per item) …
    limited.ingest(&(0..10u64).map(|i| (i, i + 1, 1i64)).collect::<Vec<_>>()).unwrap();
    // … and the next request must bounce with the typed error.
    match limited.ingest(&[(100, 101, 1)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, err::RATE_LIMITED),
        other => panic!("expected RATE_LIMITED, got {other:?}"),
    }

    // The unmetered tenant is not even slowed down: a far larger ingest sails
    // through on the same server at the same moment.
    let mut unmetered = GssClient::connect(handle.addr()).unwrap();
    unmetered.hello("unmetered", "u-secret").unwrap();
    let big: Vec<_> = (0..500u64).map(|i| (i, i + 1, 1i64)).collect();
    let ack = unmetered.ingest(&big).expect("unthrottled tenant ingests freely");
    assert_eq!(ack.accepted, 500);

    // Refill restores the limited tenant — throttling is back-pressure, not a ban.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    limited.ingest(&[(200, 201, 1)]).expect("limited tenant recovers after its bucket refills");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
