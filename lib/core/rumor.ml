(** Public façade: the whole library under one namespace.

    Downstream users depend on [rumor_core] and write
    [Rumor.Gen.clique 64], [Rumor.Async_cut.run ...], etc.  Each alias
    below points at the module whose interface documents it.

    Every module here is on a path that the CLI, the experiments, the
    server, the campaign harness, the benchmark or the examples run.
    Reference code that only the tests use (the dense eigensolver, the
    KS test, the exact clique chain, naive cut and BFS oracles, input
    fixtures) lives under [test/], and [tools/dead_exports.py] keeps it
    that way. *)

(* Utility substrate *)
module Bitset = Rumor_util.Bitset
module Fenwick = Rumor_util.Fenwick
module Table = Rumor_util.Table
module Ascii_plot = Rumor_util.Ascii_plot
module Env = Rumor_util.Env
module Crc32 = Rumor_util.Crc32
module Net = Rumor_util.Net

(* Randomness *)
module Rng = Rumor_rng.Rng
module Dist = Rumor_rng.Dist
module Alias = Rumor_rng.Alias
module Splitmix64 = Rumor_rng.Splitmix64
module Xoshiro256 = Rumor_rng.Xoshiro256

(* Statistics *)
module Descriptive = Rumor_stats.Descriptive
module Quantile = Rumor_stats.Quantile
module Regression = Rumor_stats.Regression
module Bootstrap = Rumor_stats.Bootstrap
module Summary = Rumor_stats.Summary
module Stream = Rumor_stats.Stream
module Adaptive = Rumor_stats.Adaptive

(* Graphs *)
module Graph = Rumor_graph.Graph
module Builder = Rumor_graph.Builder
module Gen = Rumor_graph.Gen
module Traverse = Rumor_graph.Traverse
module Cut = Rumor_graph.Cut
module Metrics = Rumor_graph.Metrics
module Spectral = Rumor_graph.Spectral

(* Dynamic networks *)
module Dynet = Rumor_dynamic.Dynet
module Paper_h = Rumor_dynamic.Paper_h
module Diligent = Rumor_dynamic.Diligent
module Absolute = Rumor_dynamic.Absolute
module Dichotomy = Rumor_dynamic.Dichotomy
module Alternating = Rumor_dynamic.Alternating
module Markovian = Rumor_dynamic.Markovian
module Mobile = Rumor_dynamic.Mobile
module Adversary = Rumor_dynamic.Adversary
module Family = Rumor_dynamic.Family

(* Faults and durable state: fault plans and injection, and the one
   durable log format (Wal) behind sweep checkpoints, the campaign
   journal and the serve store. *)
module Fault_plan = Rumor_faults.Fault_plan
module Checkpoint = Rumor_faults.Checkpoint
module Inject = Rumor_faults.Inject
module Wal = Rumor_faults.Wal

(* Supervised campaign layer: crash-safe campaign runner
   (per-replicate deadlines, task retry/backoff, failure budget) with
   graceful shutdown and bit-identical resume, journaled to a Wal. *)
module Campaign = Rumor_harness.Campaign

(* Multi-process campaign coordination: wire protocol, lease/epoch
   fencing, worker loop and the supervising coordinator. *)
module Proto = Rumor_harness.Proto
module Lease = Rumor_harness.Lease
module Worker = Rumor_harness.Worker
module Coordinator = Rumor_harness.Coordinator
module Netchaos = Rumor_harness.Netchaos
module Provenance = Rumor_harness.Provenance

(* Query service: memoized spread-time daemon (Serve.Query,
   Serve.Store, Serve.Server, Serve.Loadgen). *)
module Serve = Rumor_serve

(* Parallelism: the chunked Domain pool behind every Monte-Carlo
   runner (Pool.nproc, Pool.set_default_jobs, Pool.run). *)
module Pool = Rumor_par.Pool

(* Simulation *)
module Protocol = Rumor_sim.Protocol
module Async_result = Rumor_sim.Async_result
module Async_cut = Rumor_sim.Async_cut
module Async_tick = Rumor_sim.Async_tick
module Sync = Rumor_sim.Sync
module Flooding = Rumor_sim.Flooding
module Run = Rumor_sim.Run

(* Bounds *)
module Bounds = Rumor_bounds.Bounds
module Giakkoupis = Rumor_bounds.Giakkoupis
module Static_bounds = Rumor_bounds.Static_bounds
module Limit_laws = Rumor_bounds.Limit_laws

(* Observability: Obs.Metrics, Obs.Span, Obs.Sink, Obs.Run_manifest,
   Obs.Json, Obs.Clock.  (Not flattened into this
   namespace: [Metrics] already names the graph-metrics module.) *)
module Obs = Rumor_obs

(* Extensions *)
module Combinators = Rumor_dynamic.Combinators
module Trace = Rumor_sim.Trace
module Export = Rumor_graph.Export
module Coupling = Rumor_sim.Coupling
module Estimate = Rumor_sim.Estimate
