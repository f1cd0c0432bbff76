(** Pure helpers of the benchmark: percentile selection, confidence
    intervals, span self time and the RSS high-water reader. *)

val quantile : float array -> float -> float
(** [quantile xs q]: type-7 linear interpolation between order statistics.
    Raises [Invalid_argument] on an empty sample. *)

val median : float array -> float

val tail_percentile : int -> int
(** The highest whole percentile, at most 95, with at least ten of [n]
    samples beyond it; 50 (the median) when [n < 20]. *)

type tail = { percentile : int; value : float; samples : int }

val tail : float array -> tail
(** The sample's value at {!tail_percentile}, with the percentile used and
    the sample count. *)

val ci95_halfwidth : float array -> float
(** Half-width of the 95 % Student-t confidence interval of the mean.
    Requires at least two samples. *)

type span = { track : int; start : float; dur : float }

val self_times : span array -> float array
(** Each span's duration minus the union of the spans nested inside it on
    its track (a span is nested when its interval lies within another's;
    only direct children are subtracted). Same order as the input. *)

val peak_rss_mb : ?path:string -> unit -> float option
(** The [VmHWM] line of a [/proc/<pid>/status]-format file (default the
    calling process's), in MiB; [None] when the line is absent. *)
