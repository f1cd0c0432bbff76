(** Figure 3: minimum aggregate filesystem bandwidth needed to sustain 80 %
    platform efficiency on the prospective system (50 000 nodes, 7 PB
    memory), as a function of node MTBF, for the seven strategies and the
    theoretical model.

    Each point is a log-space bisection over bandwidth; every Monte Carlo
    probe replicates [reps] simulations, so this is by far the most
    expensive experiment — the defaults are deliberately modest. *)

val default_mtbf_years : float list
(** 5, 10, 15, 20, 25 years — the paper's x axis. *)

val log_bisect : f:(float -> float) -> lo0:float -> hi0:float -> iters:int -> float
(** The smallest β with [f β <= 0], for [f] decreasing in β: double [hi0]
    until it is feasible (giving up at 1e7), then bisect [iters] times in
    log space between the last infeasible bound and it. Returns [lo0] when
    the bracket never grew and [lo0] is already feasible. Evaluates [f] at
    most once per β. *)

val min_bandwidth_theoretical :
  ?classes:Cocheck_model.App_class.t list ->
  node_mtbf_years:float ->
  target_efficiency:float ->
  unit ->
  float
(** Smallest bandwidth (GB/s) at which the Theorem 1 bound allows the
    target efficiency on the prospective system. *)

val min_bandwidth :
  pool:Cocheck_parallel.Pool.t ->
  strategy:Cocheck_core.Strategy.t ->
  node_mtbf_years:float ->
  target_efficiency:float ->
  reps:int ->
  seed:int ->
  days:float ->
  ?iters:int ->
  ?manifest_dir:string ->
  unit ->
  float
(** Simulated search probe for one strategy/MTBF point (GB/s). With
    [manifest_dir], every Monte Carlo probe persists to (and reloads
    from) the digest-keyed {!Runner} results store. *)

val run :
  pool:Cocheck_parallel.Pool.t ->
  ?mtbf_years:float list ->
  ?target_efficiency:float ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  ?iters:int ->
  ?strategies:Cocheck_core.Strategy.t list ->
  ?manifest_dir:string ->
  unit ->
  Figures.t
(** Defaults: the paper's MTBF axis, 80 % target, 5 replications per probe,
    20-day segments, 9 bisection iterations. The y values are reported in
    TB/s like the paper's axis. [manifest_dir] is threaded to every
    bisection probe, so an interrupted search resumes from cache. *)
