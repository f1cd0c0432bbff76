(* Pure helpers of the benchmark: percentile selection, confidence
   intervals, span self time and the RSS high-water reader. Kept free of
   the cocheck libraries so their tests stay small. *)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "quantile: empty sample";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  (* Type-7 (linear interpolation between order statistics). *)
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The tail percentile a sample of [n] timings supports: the highest whole
   percentile, at most 95, that leaves at least ten samples beyond it.
   Below 20 samples no percentile above the median qualifies and the
   median is used. *)
let tail_percentile n =
  if n <= 0 then invalid_arg "tail_percentile: empty sample";
  let p = int_of_float (Float.floor (100.0 -. (1000.0 /. float_of_int n))) in
  max 50 (min 95 p)

type tail = { percentile : int; value : float; samples : int }

let tail xs =
  let n = Array.length xs in
  let percentile = tail_percentile n in
  { percentile; value = quantile xs (float_of_int percentile /. 100.0); samples = n }

(* Two-sided 97.5 % Student-t quantiles for 1..30 degrees of freedom; the
   normal quantile beyond. *)
let t975 =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228; 2.201;
    2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086; 2.080; 2.074;
    2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

(* Half-width of the 95 % confidence interval of the mean of [xs]
   (Student t, sample standard deviation). *)
let ci95_halfwidth xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "ci95_halfwidth: needs two samples";
  let fn = float_of_int n in
  let mean = Array.fold_left ( +. ) 0.0 xs /. fn in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs in
  let sd = sqrt (ss /. (fn -. 1.0)) in
  let t = if n - 1 <= Array.length t975 then t975.(n - 2) else 1.960 in
  t *. sd /. sqrt fn

type span = { track : int; start : float; dur : float }

(* Self time of every span: its duration minus the part of it that spans
   nested inside it on the same track cover. A span is nested in another
   when its interval lies within the other's; overlapping children are
   merged so no instant is subtracted twice. Results follow input order. *)
let self_times spans =
  let n = Array.length spans in
  let order = Array.init n Fun.id in
  (* Parents before children: by track, start, then longest first. *)
  Array.sort
    (fun i j ->
      let a = spans.(i) and b = spans.(j) in
      match compare a.track b.track with
      | 0 -> (
          match Float.compare a.start b.start with
          | 0 -> Float.compare b.dur a.dur
          | c -> c)
      | c -> c)
    order;
  let self = Array.map (fun s -> s.dur) spans in
  (* [covered.(i)] is the end of the last child interval subtracted from
     span [i], so overlapping siblings are not counted twice. *)
  let covered = Array.map (fun s -> s.start) spans in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      let fin = s.start +. s.dur in
      let rec pop () =
        match !stack with
        | p :: rest
          when spans.(p).track <> s.track || spans.(p).start +. spans.(p).dur < fin ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | p :: _ ->
          let from = Float.max s.start covered.(p) in
          if fin > from then begin
            self.(p) <- self.(p) -. (fin -. from);
            covered.(p) <- fin
          end
      | [] -> ());
      stack := i :: !stack)
    order;
  self

(* The process's resident-set high-water mark in MiB, read from a
   [/proc/<pid>/status]-format file ("VmHWM:  123456 kB"). *)
let peak_rss_mb ?(path = "/proc/self/status") () =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float_of_int kb /. 1024.0)
            | None -> scan ())
      in
      scan ())
