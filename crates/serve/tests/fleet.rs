//! Integration tests for the fleet serving simulator: determinism across
//! host thread counts, fault scenarios, prefill/decode disaggregation,
//! KV-pool conservation, event tie order, the typed stall, and the TTFT
//! definition under chunked prefill.

use resoftmax_gpusim::{DeviceSpec, Gpu};
use resoftmax_model::{build_batched_decode_schedule, ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    kv_bytes_per_token, poisson_arrivals, Arrival, Error, FleetBuilder, FleetReport, LinkSpec,
    Policy, RouterPolicy, ServeConfig,
};

fn model() -> ModelConfig {
    ModelConfig::gpt_neo_1_3b()
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        requests: 16,
        arrival_rate_hz: 64.0,
        prompt_tokens: (64, 192),
        decode_tokens: (4, 12),
        max_batch: 4,
        prefill_chunk: 64,
        ..ServeConfig::default()
    }
}

/// `cfg` served on one A100 replica.
fn one_replica(params: RunParams, cfg: &ServeConfig) -> FleetReport {
    FleetBuilder::new()
        .model(model())
        .params(params)
        .replica(DeviceSpec::a100())
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn one_replica_completes_all_requests_deterministically() {
    let cfg = ServeConfig {
        requests: 6,
        ..small_cfg()
    };
    let a = one_replica(RunParams::new(4096), &cfg);
    assert_eq!(a, one_replica(RunParams::new(4096), &cfg));
    assert_eq!(a.completed, cfg.requests);
    assert_eq!(a.ttft.n, cfg.requests);
    assert!(a.sim_time_s > 0.0);
    assert!(a.decode_tokens_per_s > 0.0);
    assert!(a.tbt.p50_s > 0.0);
    let kv_peak = a.replicas[0].kv_peak_occupancy;
    assert!(kv_peak > 0.0 && kv_peak <= 1.0);
    // Every request owes decode - 1 TBT samples (the first token is the
    // TTFT sample).
    assert!(a.tbt.n >= cfg.requests * (cfg.decode_tokens.0 - 1));
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn one_replica_tiny_pool_forces_evictions_yet_completes() {
    // Two requests fit at admission (prompts alone), but their decode
    // growth overflows the pool: eviction must kick in, and the
    // oldest-never-evicted rule still drains the queue.
    let cfg = ServeConfig {
        requests: 6,
        prompt_tokens: (64, 96),
        decode_tokens: (16, 32),
        kv_capacity_bytes: Some(kv_bytes_per_token(&model()) * 192),
        ..small_cfg()
    };
    let r = one_replica(RunParams::new(4096), &cfg);
    assert_eq!(r.completed, cfg.requests);
    assert!(r.evictions > 0, "a 192-token pool must evict: {r:?}");
    assert!(r.replicas[0].kv_peak_occupancy > 0.5);
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn one_replica_serves_the_recomposed_strategy() {
    let cfg = ServeConfig {
        requests: 3,
        ..small_cfg()
    };
    let r = one_replica(
        RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
        &cfg,
    );
    assert_eq!(r.completed, 3);
    assert_eq!(r.strategy, "recomposed");
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn fleet_reports_are_bit_identical_across_host_threads() {
    // Two grid cells (round-robin and least-loaded fleets), evaluated under
    // 1 and 4 worker threads: all time is simulated, so the serialized
    // reports must match byte for byte.
    let cells = [RouterPolicy::RoundRobin, RouterPolicy::LeastLoaded];
    let run_grid = || {
        resoftmax_parallel::parallel_map(&cells, |_, &router| {
            let report = FleetBuilder::new()
                .model(model())
                .params(RunParams::new(4096))
                .replicas(3, &DeviceSpec::a100())
                .router(router)
                .link(LinkSpec::nvlink())
                .workload(small_cfg())
                .build()
                .unwrap()
                .run()
                .unwrap();
            serde_json::to_string(&report).unwrap()
        })
    };
    resoftmax_parallel::set_thread_override(Some(1));
    let single = run_grid();
    resoftmax_parallel::set_thread_override(Some(4));
    let multi = run_grid();
    resoftmax_parallel::set_thread_override(None);
    assert_eq!(single, multi, "fleet reports diverged across thread counts");
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn fleet_reruns_are_identical() {
    // The second run hits the warm kernel-pricing cache; the report must be
    // bit-identical to the cold one (and `Fleet::run` must reset all state).
    let fleet = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(2, &DeviceSpec::a100())
        .router(RouterPolicy::CacheAffinity)
        .workload(small_cfg())
        .build()
        .unwrap();
    let a = fleet.run().unwrap();
    let b = fleet.run().unwrap();
    assert_eq!(a, b);
    assert_eq!(a.completed, small_cfg().requests);
    assert_eq!(a.submitted, small_cfg().requests);
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn drain_migrates_residents_and_completes_everything() {
    // Drain replica 0 early enough that it still holds resident requests:
    // they must migrate (KV over the link) or re-queue, and the workload
    // must still finish on the survivor.
    let cfg = ServeConfig {
        requests: 12,
        arrival_rate_hz: 256.0,
        ..small_cfg()
    };
    let report = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(2, &DeviceSpec::a100())
        .router(RouterPolicy::RoundRobin)
        .link(LinkSpec::pcie_gen4())
        .workload(cfg.clone())
        .drain_at(0, 0.05)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.completed, cfg.requests);
    assert!(report.replicas[0].drained);
    assert!(!report.replicas[1].drained);
    assert!(
        report.migrations > 0,
        "an early drain must migrate resident KV: {report:?}"
    );
    assert!(report.kv_migrated_bytes > 0);
    assert!(report.migration_time_s > 0.0);
    // Everything after the drain lands on replica 1.
    assert!(report.replicas[1].completed > 0);
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn failure_loses_kv_but_the_fleet_recovers() {
    let cfg = ServeConfig {
        requests: 12,
        arrival_rate_hz: 256.0,
        ..small_cfg()
    };
    let report = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(2, &DeviceSpec::a100())
        .workload(cfg.clone())
        .fail_at(1, 0.05)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.completed, cfg.requests);
    assert!(report.replicas[1].failed);
    // A failed pool cannot migrate: its residents re-prefill from scratch,
    // so no link traffic is charged for them.
    assert_eq!(report.replicas[1].completed, 0, "{report:?}");
    assert!(report.replicas[0].completed == cfg.requests);
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn a_drain_tied_with_an_arrival_fires_first() {
    // Round-robin sends request 0 to replica 0 and request 1 to replica 1,
    // so request 2 is replica 0's turn. Replica 0 drains at exactly request
    // 2's arrival: the fault fires first, so request 2 never lands on
    // replica 0 and the run matches a drain an instant earlier. A drain an
    // instant later lets request 2 land on replica 0 first, to be displaced
    // behind its in-flight iteration.
    let t = 1e-4;
    let cfg = ServeConfig {
        requests: 3,
        prompt_tokens: (16, 192),
        ..small_cfg()
    };
    let at = |at_s, prompt| Arrival {
        at_s,
        prompt,
        decode: 8,
    };
    let trace = vec![at(0.0, 192), at(0.0, 16), at(t, 64)];
    let run = |drain_s: f64| {
        let report = FleetBuilder::new()
            .model(model())
            .params(RunParams::new(4096))
            .replicas(2, &DeviceSpec::a100())
            .router(RouterPolicy::RoundRobin)
            .workload(cfg.clone())
            .arrivals(trace.clone())
            .drain_at(0, drain_s)
            .build()
            .unwrap()
            .run()
            .unwrap();
        serde_json::to_string(&report).unwrap()
    };
    let tied = run(t);
    assert_eq!(
        tied,
        run(t.next_down()),
        "the drain must fire before the arrival"
    );
    assert_ne!(tied, run(t.next_up()), "the tie must be observable");
}

#[test]
fn exceeding_max_iterations_is_a_typed_stall() {
    let e = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replica(DeviceSpec::a100())
        .workload(ServeConfig {
            max_iterations: 2,
            ..small_cfg()
        })
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(matches!(e, Error::Stalled { .. }), "{e}");
    assert!(e.to_string().contains("0/16 requests done"), "{e}");
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn ttft_is_the_final_prompt_chunk_not_the_first_decode() {
    // One request, prompt 256 in chunks of 64, 4 output tokens. The first
    // token is emitted by the *final prefill chunk's* forward pass, so TTFT
    // is the sum of the four prefill iterations — not that plus the first
    // single-token decode iteration (the old, wrong definition).
    let m = model();
    let params = RunParams::new(4096);
    let cfg = ServeConfig {
        requests: 1,
        prompt_tokens: (256, 256),
        decode_tokens: (4, 4),
        max_batch: 1,
        prefill_chunk: 64,
        ..ServeConfig::default()
    };
    let report = FleetBuilder::new()
        .model(m.clone())
        .params(params.clone())
        .replica(DeviceSpec::a100())
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();

    // Price the same five iterations by hand, accumulating the clock the
    // same way the engine does so the comparison is exact.
    let t0 = resoftmax_serve::poisson_arrivals(&cfg).unwrap()[0].at_s;
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let mut price = |ctxs: Vec<usize>| -> f64 {
        gpu.run(&build_batched_decode_schedule(&m, &ctxs, &params))
            .unwrap();
        gpu.take_timeline().total_time_s()
    };
    let mut clock = t0;
    for chunk in 0..4 {
        clock += price((chunk * 64 + 1..=chunk * 64 + 64).collect());
    }
    let expected_ttft = clock - t0;
    let first_decode_dt = price(vec![257]);

    assert_eq!(
        report.ttft.max_s, expected_ttft,
        "TTFT must be the final prefill chunk's completion"
    );
    assert!(
        report.ttft.max_s < expected_ttft + first_decode_dt,
        "TTFT must not include the first decode iteration"
    );
    // Tokens 2..4 are decode iterations: exactly decode - 1 TBT samples.
    assert_eq!(report.tbt.n, 3);
    assert_eq!(report.decode_tokens, 4);
}

#[test]
fn builder_rejects_bad_configurations() {
    let base = || {
        FleetBuilder::new()
            .model(model())
            .params(RunParams::new(4096))
            .workload(small_cfg())
    };

    // No replicas.
    let e = base().build().unwrap_err();
    assert!(matches!(e, Error::Config { .. }), "{e}");
    assert!(e.to_string().contains("at least one replica"), "{e}");

    // A decode range that cannot produce a TBT sample.
    let mut cfg = small_cfg();
    cfg.decode_tokens = (1, 8);
    let e = base()
        .replica(DeviceSpec::a100())
        .workload(cfg)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("TTFT"), "{e}");

    // Every replica has a scripted fault.
    let e = base()
        .replicas(2, &DeviceSpec::a100())
        .fail_at(0, 1.0)
        .drain_at(1, 2.0)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("survive"), "{e}");

    // A fault event pointing past the fleet.
    let e = base()
        .replica(DeviceSpec::a100())
        .fail_at(3, 1.0)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("replica 3"), "{e}");

    // KV pool below one worst-case request.
    let mut cfg = small_cfg();
    cfg.kv_capacity_bytes = Some(kv_bytes_per_token(&model()) * 64);
    let e = base()
        .replica(DeviceSpec::a100())
        .workload(cfg)
        .build()
        .unwrap_err();
    assert!(matches!(e, Error::Admission { .. }), "{e}");
    assert!(e.to_string().contains("worst-case request"), "{e}");

    // Sparse models have no decode cost model.
    let e = FleetBuilder::new()
        .model(ModelConfig::bigbird_large())
        .params(RunParams::new(4096))
        .replica(DeviceSpec::a100())
        .workload(small_cfg())
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("dense"), "{e}");
}

/// A 2-prefill + 4-decode disaggregated fleet over `n` requests.
fn disagg_report(n: usize, link: LinkSpec, router: RouterPolicy) -> FleetReport {
    let cfg = ServeConfig {
        requests: n,
        arrival_rate_hz: 64.0,
        ..small_cfg()
    };
    FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .prefill_replicas(2, &DeviceSpec::a100())
        .decode_replicas(4, &DeviceSpec::a100())
        .router(router)
        .link(link)
        .workload(cfg)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn disaggregated_fleet_hands_off_every_request_without_re_prefill() {
    let n = 96;
    let report = disagg_report(n, LinkSpec::nvlink(), RouterPolicy::RoundRobin);
    assert_eq!(report.completed, n);
    // Every request prefills on the prefill side, hands its KV across the
    // link exactly once (ample KV: nothing is evicted mid-decode), and
    // decodes without recomputing a single prompt token.
    assert_eq!(report.handoffs, n, "{report:?}");
    assert!(report.kv_handoff_bytes > 0);
    assert!(report.kv_handoff_time_s > 0.0);
    assert_eq!(report.decode_side_prefill_tokens, 0, "{report:?}");
    assert_eq!(report.evictions, 0);
    // Handoffs are not migrations: the rebalancing accounting stays zero.
    assert_eq!(report.migrations, 0);
    assert_eq!(report.kv_migrated_bytes, 0);
    for r in &report.replicas {
        match r.role.as_str() {
            "prefill" => {
                assert_eq!(r.completed, 0, "prefill replicas never finish a request");
                assert_eq!(
                    r.decode_tokens as usize, r.handoffs_out,
                    "first tokens only"
                );
                assert!(r.prefill_tokens > 0);
                assert_eq!(r.handoffs_in, 0);
            }
            "decode" => {
                assert_eq!(r.prefill_tokens, 0, "decode side must not re-prefill");
                assert!(r.completed > 0, "round-robin spreads decodes: {report:?}");
                assert_eq!(r.handoffs_out, 0);
            }
            other => panic!("unexpected role {other}"),
        }
    }
    assert_eq!(
        report
            .replicas
            .iter()
            .map(|r| r.handoffs_out)
            .sum::<usize>(),
        report.replicas.iter().map(|r| r.handoffs_in).sum::<usize>(),
    );
    // Every handed-off token is decoded exactly once, fleet-wide.
    assert_eq!(
        report.decode_tokens,
        report.replicas.iter().map(|r| r.decode_tokens).sum::<u64>()
    );
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn disaggregated_reports_are_bit_identical_across_threads_and_reruns() {
    let run = || {
        serde_json::to_string(&disagg_report(
            48,
            LinkSpec::pcie_gen4(),
            RouterPolicy::LeastLoaded,
        ))
        .unwrap()
    };
    // Cold pricing cache, single host thread.
    let cold = run();
    // Warm cache, 4 host threads: all time is simulated, so the report must
    // not move by a bit.
    resoftmax_parallel::set_thread_override(Some(4));
    let warm_multi = run();
    resoftmax_parallel::set_thread_override(Some(1));
    let warm_single = run();
    resoftmax_parallel::set_thread_override(None);
    assert_eq!(cold, warm_multi, "disaggregated report diverged");
    assert_eq!(cold, warm_single, "disaggregated report diverged on rerun");
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn handoff_cost_scales_with_the_link_but_ttft_does_not() {
    // TTFT is sampled when the final prefill chunk completes on the
    // *prefill* side — before the KV crosses the wire — so it is identical
    // across interconnects; the handoff wire time is what grows as the link
    // slows down (NVLink < PCIe < 100GbE) and lands in the token-2 TBT.
    let nvlink = disagg_report(24, LinkSpec::nvlink(), RouterPolicy::RoundRobin);
    let pcie = disagg_report(24, LinkSpec::pcie_gen4(), RouterPolicy::RoundRobin);
    let eth = disagg_report(24, LinkSpec::ethernet_100g(), RouterPolicy::RoundRobin);
    assert_eq!(nvlink.kv_handoff_bytes, pcie.kv_handoff_bytes);
    assert_eq!(pcie.kv_handoff_bytes, eth.kv_handoff_bytes);
    assert!(nvlink.kv_handoff_time_s < pcie.kv_handoff_time_s);
    assert!(pcie.kv_handoff_time_s < eth.kv_handoff_time_s);
    let ttfts = |r: &FleetReport| serde_json::to_string(&r.ttft).unwrap();
    assert_eq!(
        ttfts(&nvlink),
        ttfts(&pcie),
        "TTFT must be link-independent"
    );
    assert_eq!(ttfts(&pcie), ttfts(&eth), "TTFT must be link-independent");
}

#[test]
fn builder_rejects_role_violations() {
    let base = || {
        FleetBuilder::new()
            .model(model())
            .params(RunParams::new(4096))
            .workload(small_cfg())
    };

    // Prefill replicas with nowhere to hand off to.
    let e = base()
        .prefill_replicas(2, &DeviceSpec::a100())
        .build()
        .unwrap_err();
    assert!(matches!(e, Error::Config { .. }), "{e}");
    assert!(e.to_string().contains("zero decode"), "{e}");

    // Decode-only fleets cannot admit arrivals.
    let e = base()
        .decode_replicas(2, &DeviceSpec::a100())
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("prefill-capable"), "{e}");

    // Scripted faults must leave each phase a survivor: here a replica
    // survives (so the blanket check passes) but both prefill-capable
    // replicas are scripted to die.
    let e = base()
        .prefill_replicas(2, &DeviceSpec::a100())
        .decode_replicas(2, &DeviceSpec::a100())
        .fail_at(0, 1.0)
        .drain_at(1, 2.0)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("prefill-capable"), "{e}");
    assert!(e.to_string().contains("survive"), "{e}");

    // ... and symmetrically for the decode side.
    let e = base()
        .prefill_replicas(2, &DeviceSpec::a100())
        .decode_replicas(1, &DeviceSpec::a100())
        .fail_at(2, 1.0)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("decode-capable"), "{e}");

    // A Unified replica satisfies both capabilities.
    assert!(base()
        .prefill_replicas(1, &DeviceSpec::a100())
        .replica(DeviceSpec::a100())
        .build()
        .is_ok());
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn kv_pools_return_to_zero_after_every_run() {
    // Property: a completed workload leaves every replica's KV pool empty —
    // across eviction churn, drains, failures, and prefill→decode handoffs.
    // A leak here is an alloc/free accounting bug that otherwise only
    // surfaces as the pool's free-underflow panic.
    let tight_kv = Some(kv_bytes_per_token(&model()) * 320);
    let scenarios: Vec<(&str, FleetReport)> = vec![
        (
            "unified ample",
            FleetBuilder::new()
                .model(model())
                .params(RunParams::new(4096))
                .replicas(2, &DeviceSpec::a100())
                .workload(small_cfg())
                .build()
                .unwrap()
                .run()
                .unwrap(),
        ),
        (
            "unified tight KV (evictions)",
            FleetBuilder::new()
                .model(model())
                .params(RunParams::new(4096))
                .replicas(2, &DeviceSpec::a100())
                .workload(ServeConfig {
                    kv_capacity_bytes: tight_kv,
                    arrival_rate_hz: 256.0,
                    ..small_cfg()
                })
                .build()
                .unwrap()
                .run()
                .unwrap(),
        ),
        (
            "drain mid-run",
            FleetBuilder::new()
                .model(model())
                .params(RunParams::new(4096))
                .replicas(2, &DeviceSpec::a100())
                .workload(ServeConfig {
                    arrival_rate_hz: 256.0,
                    ..small_cfg()
                })
                .drain_at(0, 0.05)
                .build()
                .unwrap()
                .run()
                .unwrap(),
        ),
        (
            "fail mid-run",
            FleetBuilder::new()
                .model(model())
                .params(RunParams::new(4096))
                .replicas(2, &DeviceSpec::a100())
                .workload(ServeConfig {
                    arrival_rate_hz: 256.0,
                    ..small_cfg()
                })
                .fail_at(1, 0.05)
                .build()
                .unwrap()
                .run()
                .unwrap(),
        ),
        (
            "disaggregated handoffs",
            disagg_report(24, LinkSpec::pcie_gen4(), RouterPolicy::RoundRobin),
        ),
        (
            "disaggregated tight decode KV",
            FleetBuilder::new()
                .model(model())
                .params(RunParams::new(4096))
                .prefill_replicas(1, &DeviceSpec::a100())
                .decode_replicas(1, &DeviceSpec::a100())
                .workload(ServeConfig {
                    kv_capacity_bytes: tight_kv,
                    arrival_rate_hz: 256.0,
                    ..small_cfg()
                })
                .link(LinkSpec::ethernet_100g())
                .build()
                .unwrap()
                .run()
                .unwrap(),
        ),
    ];
    let mut eviction_scenarios = 0;
    for (name, report) in &scenarios {
        assert_eq!(report.completed, report.submitted, "{name}: {report:?}");
        for r in &report.replicas {
            assert_eq!(
                r.kv_used_blocks_end, 0,
                "{name}: replica {} leaked KV blocks: {report:?}",
                r.id
            );
        }
        eviction_scenarios += usize::from(report.evictions > 0);
    }
    assert!(
        eviction_scenarios >= 1,
        "the tight-KV scenarios must actually exercise eviction: {:?}",
        scenarios
            .iter()
            .map(|(n, r)| (*n, r.evictions))
            .collect::<Vec<_>>()
    );
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn sessions_pin_to_replicas_under_cache_affinity() {
    // With 4 sessions and the affinity router, requests of one session all
    // land on (and stay on) the session's rendezvous replica unless
    // displaced — with ample KV there are no displacements, so migrations
    // must be zero.
    let cfg = ServeConfig {
        sessions: 4,
        ..small_cfg()
    };
    let report = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(4, &DeviceSpec::a100())
        .router(RouterPolicy::CacheAffinity)
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.completed, cfg.requests);
    assert_eq!(report.migrations, 0);
    assert_eq!(report.evictions, 0);
    // 4 sessions over 4 replicas: at most 4 replicas see work, and at least
    // one does.
    let active = report.replicas.iter().filter(|r| r.completed > 0).count();
    assert!((1..=4).contains(&active));
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
fn preemptive_priority_preempts_decodes_without_losing_work() {
    // A prefill-heavy burst against one replica: with the batch full of
    // decode-phase requests, `PreemptivePriority` must swap the most-owed
    // decoder out for a ready prefill. The preempted request keeps its KV
    // blocks resident, so re-admission never re-prefills — total prefill
    // work equals the workload's prompt tokens exactly.
    let cfg = ServeConfig {
        requests: 32,
        arrival_rate_hz: 64.0,
        prompt_tokens: (128, 512),
        decode_tokens: (32, 96),
        max_batch: 4,
        prefill_chunk: 128,
        policy: Policy::PreemptivePriority,
        ..ServeConfig::default()
    };
    let report = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(1, &DeviceSpec::a100())
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.completed, cfg.requests);
    assert_eq!(report.policy, "preemptive-priority");
    assert!(
        report.preemptions > 0,
        "the burst must trigger preemptions: {report:?}"
    );
    assert_eq!(report.preemptions, report.replicas[0].preemptions);
    let prompt_total: u64 = poisson_arrivals(&cfg)
        .unwrap()
        .iter()
        .map(|a| a.prompt as u64)
        .sum();
    assert_eq!(
        report.prefill_tokens, prompt_total,
        "preempted requests re-prefilled: resident KV was not preserved"
    );
}
