open Cocheck_model

type t = {
  platform : Platform.t;
  classes : App_class.t list;
  strategy : Cocheck_core.Strategy.t;
  seed : int;
  min_duration_s : float;
  seg_start : float;
  seg_end : float;
  horizon : float;
  fill_factor : float;
  with_failures : bool;
  failure_dist : Failure_trace.distribution;
  interference_alpha : float;
  multilevel : multilevel option;
}

and multilevel = { levels : level list }

and level = Snapshot of snapshot_level | Buffer of buffer_level

and snapshot_level = {
  sl_period_s : float;
  sl_cost_s : float;
  sl_recovery_s : float;
  sl_survival : float;
}

and buffer_level = {
  bl_capacity_gb : float;
  bl_bandwidth_gbs : float;
  bl_flush_gbs : float option;
  bl_survival : float;
}

let local_level ~period_s ~cost_s ~recovery_s ~soft_fraction =
  {
    levels =
      [
        Snapshot
          {
            sl_period_s = period_s;
            sl_cost_s = cost_s;
            sl_recovery_s = recovery_s;
            sl_survival = soft_fraction;
          };
      ];
  }

let buffer ?flush_gbs ?(survival = 1.0) ~capacity_gb ~bandwidth_gbs () =
  Buffer
    {
      bl_capacity_gb = capacity_gb;
      bl_bandwidth_gbs = bandwidth_gbs;
      bl_flush_gbs = flush_gbs;
      bl_survival = survival;
    }

let validate_multilevel m =
  if m.levels = [] then invalid_arg "Config: multilevel with no levels";
  let seen_buffer = ref false in
  List.iter
    (function
      | Snapshot s ->
          if !seen_buffer then
            invalid_arg "Config: snapshot levels must precede buffer levels";
          if s.sl_period_s <= 0.0 then
            invalid_arg "Config: local period must be positive";
          Cocheck_core.Multilevel.validate_level ~what:"Config" ~cost_s:s.sl_cost_s
            ~recovery_s:s.sl_recovery_s ~fraction:s.sl_survival
      | Buffer b ->
          seen_buffer := true;
          if b.bl_capacity_gb <= 0.0 then
            invalid_arg "Config: buffer level capacity must be positive";
          if b.bl_bandwidth_gbs <= 0.0 then
            invalid_arg "Config: buffer level bandwidth must be positive";
          (match b.bl_flush_gbs with
          | Some f when f <= 0.0 ->
              invalid_arg "Config: flush bandwidth must be positive"
          | _ -> ());
          if b.bl_survival < 0.0 || b.bl_survival > 1.0 then
            invalid_arg "Config: buffer survival outside [0, 1]")
    m.levels

(* The compact command-line syntax, see config.mli. *)
let level_of_string s =
  let s = String.trim s in
  let fields s = List.map String.trim (String.split_on_char ',' s) in
  let bad expected = Error (Printf.sprintf "Config: bad level %S: expected %s" s expected) in
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "snapshot" -> (
      match List.map float_of_string_opt (fields (String.sub s (i + 1) (String.length s - i - 1))) with
      | [ Some sl_period_s; Some sl_cost_s; Some sl_recovery_s; Some sl_survival ] ->
          Ok (Snapshot { sl_period_s; sl_cost_s; sl_recovery_s; sl_survival })
      | _ -> bad "snapshot:PERIOD_S,COST_S,RECOVERY_S,SURVIVAL")
  | Some _ -> Error (Printf.sprintf "Config: unknown level tag in %S" s)
  | None -> (
      let cap, bw, flush, surv =
        match fields s with
        | [ c; b ] -> (c, b, "", "1")
        | [ c; b; f ] -> (c, b, f, "1")
        | [ c; b; f; v ] -> (c, b, f, v)
        | _ -> ("", "", "", "")
      in
      (* [Some None]: an empty FLUSH field, i.e. serialized drains. *)
      let flush = if flush = "" then Some None else Option.map Option.some (float_of_string_opt flush) in
      match (float_of_string_opt cap, float_of_string_opt bw, flush, float_of_string_opt surv) with
      | Some capacity_gb, Some bandwidth_gbs, Some flush_gbs, Some survival ->
          Ok (buffer ?flush_gbs ~survival ~capacity_gb ~bandwidth_gbs ())
      | _ -> bad "CAP_GB,BW_GBS[,FLUSH_GBS[,SURVIVAL]]")

let multilevel_of_string s =
  let rec levels = function
    | [] -> Ok []
    | l :: rest ->
        Result.bind (level_of_string l) (fun l -> Result.map (List.cons l) (levels rest))
  in
  Result.bind (levels (String.split_on_char ';' s)) (fun levels ->
      let m = { levels } in
      match validate_multilevel m with () -> Ok m | exception Invalid_argument e -> Error e)

let multilevel_to_string m =
  let num x =
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  in
  let level = function
    | Snapshot s ->
        Printf.sprintf "snapshot:%s,%s,%s,%s" (num s.sl_period_s) (num s.sl_cost_s)
          (num s.sl_recovery_s) (num s.sl_survival)
    | Buffer b ->
        String.concat ","
          ([ num b.bl_capacity_gb; num b.bl_bandwidth_gbs ]
          @
          match (b.bl_flush_gbs, b.bl_survival) with
          | None, 1.0 -> []
          | Some f, 1.0 -> [ num f ]
          | f, sv -> [ Option.fold ~none:"" ~some:num f; num sv ])
  in
  String.concat ";" (List.map level m.levels)

let validate t =
  if t.classes = [] then invalid_arg "Config: no application classes";
  if t.seg_start < 0.0 || t.seg_start > t.seg_end then invalid_arg "Config: bad segment";
  if t.horizon < t.seg_end then invalid_arg "Config: horizon before segment end";
  if t.min_duration_s <= 0.0 then invalid_arg "Config: non-positive duration";
  if t.fill_factor < 1.0 then invalid_arg "Config: fill factor below 1";
  if t.interference_alpha < 0.0 then invalid_arg "Config: negative interference alpha";
  Option.iter validate_multilevel t.multilevel

let make ~platform ?classes ~strategy ?(seed = 42) ?(days = 60.0) ?(fill_factor = 1.15)
    ?(with_failures = true) ?(failure_dist = Failure_trace.Exponential)
    ?(interference_alpha = 0.0) ?multilevel () =
  let day = Cocheck_util.Units.day in
  let classes =
    match classes with
    | Some cs -> cs
    | None ->
        if platform.Platform.name = "Cielo" then Apex.lanl_workload
        else Apex.scaled_workload ~target:platform
  in
  let with_failures =
    match strategy with Cocheck_core.Strategy.Baseline -> false | _ -> with_failures
  in
  let t =
    {
      platform;
      classes;
      strategy;
      seed;
      min_duration_s = (days +. 2.0) *. day;
      seg_start = 1.0 *. day;
      seg_end = (days +. 1.0) *. day;
      horizon = (days +. 2.0) *. day;
      fill_factor;
      with_failures;
      failure_dist;
      interference_alpha;
      multilevel;
    }
  in
  validate t;
  t

let baseline_of t =
  { t with strategy = Cocheck_core.Strategy.Baseline; with_failures = false }
