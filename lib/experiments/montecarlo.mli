(** Replicated simulation: the paper's Monte Carlo protocol.

    This is now a compatibility shim over the campaign engine: [measure]
    builds an unswept {!Spec.t} and delegates to {!Runner.run}, so callers
    get the same results (same per-replication seeds, same aggregation
    order) plus, through [manifest_dir], the runner's resumable results
    store.

    Each replication draws fresh initial conditions (job list and failure
    trace) from [seed + replication]; all strategies within a replication
    share the same job list and are normalised by the same failure-free
    baseline run, and the waste ratios are aggregated across replications
    into candlestick statistics. *)

type measurement = {
  strategy : Cocheck_core.Strategy.t;
  ratios : float array;  (** one waste ratio per replication *)
  stats : Cocheck_util.Stats.candlestick;
}

val measure :
  pool:Cocheck_parallel.Pool.t ->
  platform:Cocheck_model.Platform.t ->
  ?classes:Cocheck_model.App_class.t list ->
  strategies:Cocheck_core.Strategy.t list ->
  reps:int ->
  seed:int ->
  ?days:float ->
  ?failure_dist:Cocheck_sim.Failure_trace.distribution ->
  ?interference_alpha:float ->
  ?multilevel:Cocheck_sim.Config.multilevel ->
  ?manifest_dir:string ->
  unit ->
  measurement list
(** Run [reps] replications of every strategy (plus the shared baselines)
    on the pool. [days] is the measurement-segment length (default 60, the
    paper's; experiments routinely shrink it to trade fidelity for time).
    [manifest_dir] (created if missing) is a {!Runner} results store: every
    completed (replication, strategy) data point persists one
    digest-keyed JSON record capturing its exact coordinates and waste
    ratio, cached points are loaded instead of re-simulated, and an
    interrupted campaign resumes where it stopped. *)

val mean_waste :
  pool:Cocheck_parallel.Pool.t ->
  platform:Cocheck_model.Platform.t ->
  ?classes:Cocheck_model.App_class.t list ->
  strategy:Cocheck_core.Strategy.t ->
  reps:int ->
  seed:int ->
  ?days:float ->
  ?failure_dist:Cocheck_sim.Failure_trace.distribution ->
  ?interference_alpha:float ->
  ?multilevel:Cocheck_sim.Config.multilevel ->
  ?manifest_dir:string ->
  unit ->
  float
(** Mean waste ratio of a single strategy — the Figure 3 search probe.
    [manifest_dir] threads through to the same results store as
    {!measure}, so repeated probes (e.g. bisection re-runs) are cached. *)

val rep_seed : seed:int -> rep:int -> int
(** The derived per-replication seed (defined once, in {!Spec.rep_seed};
    exposed here for reproducibility tests). *)
