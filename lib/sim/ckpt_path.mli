(** The checkpoint path: periodic request scheduling, the request →
    commit/abort state machine (Section 3's blocking and non-blocking
    variants, plus commits absorbed by a {!Ckpt_hierarchy} buffer tier),
    and the node-local snapshot cycle.

    The strategy's discipline enters only through
    {!Cocheck_core.Strategy.uses_token} / {!Cocheck_core.Strategy.is_blocking}
    and the run's {!Arbiter} policy — no per-strategy branches live here. *)

val install_callbacks : Sim_types.w -> Sim_types.inst -> unit
(** Build the instance's recycled checkpoint-path callbacks (request
    firing, local tick/done) once; called by {!Lifecycle} at instance
    start so the periodic re-arms allocate no closures. *)

val schedule_ckpt_request : Sim_types.w -> Sim_types.inst -> unit
(** Arm the next checkpoint request, one (P − C) after the current commit
    end; no-op once the remaining work is negligible or checkpointing is
    disabled. *)

val on_ckpt_done : Sim_types.w -> Sim_types.inst -> unit
(** Commit completion: release the token, bank the captured work level,
    restart the request clock and resume computing. *)

val grant_ckpt : Sim_types.w -> Sim_types.request -> unit
(** Token-grant continuation for a checkpoint request: account the wait
    and start the PFS transfer. *)

val schedule_local_tick : Sim_types.w -> Sim_types.inst -> unit
(** Arm the next node-local snapshot under two-level checkpointing; no-op
    without a [multilevel] configuration. *)
