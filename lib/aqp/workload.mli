(** Mixed query workloads over a relation engine.

    A workload is a list of typed queries (point lookups, range sums,
    selectivities, quantiles). {!generate} draws a reproducible mix;
    {!run} answers everything from the engine's synopsis and reports
    per-kind accuracy — the DSS-style evaluation the paper's
    introduction motivates. *)

type query =
  | Point of int
  | Range_sum of int * int  (** inclusive bounds *)
  | Selectivity of int * int
  | Quantile of float

type mix = {
  points : int;
  ranges : int;
  selectivities : int;
  quantiles : int;
}

val default_mix : mix
(** 25 of each kind. *)

val mix_total : mix -> int
(** Sum of the four kind weights. *)

val mix_of_string : string -> (mix, string) result
(** Parse the CLI form ["points=10,ranges=70,selectivities=10,quantiles=10"];
    omitted kinds get weight 0. Errors (human-readable, for a
    structured exit-2 option error) on unknown kinds, malformed or
    negative weights, and an all-zero mix. *)

val mix_to_string : mix -> string
(** Render a mix in the exact form {!mix_of_string} parses, every kind
    spelled out — the form the serving profiler reports its observed
    mix in. *)

val parse_weights : string -> ((string * int) list, string) result
(** The ["kind=weight,..."] splitter behind {!mix_of_string}, exposed
    so other weight vocabularies (the server load generator's) parse
    the same spec language with the same error strings. Weights must
    be non-negative integers; keys are not interpreted. *)

val draw_point : Wavesyn_util.Prng.t -> n:int -> query
(** One uniform point lookup over [\[0, n)]. *)

val draw_range : Wavesyn_util.Prng.t -> n:int -> query
(** One range sum: [lo] uniform, then [hi] uniform in [\[lo, n)] — two
    Prng draws, the canonical range distribution of every generator. *)

val draw_selectivity : Wavesyn_util.Prng.t -> n:int -> query
(** One selectivity query, bounds drawn exactly like {!draw_range}. *)

val draw_quantile : Wavesyn_util.Prng.t -> query
(** One quantile with [q] uniform in [\[0, 1)] — the serving-traffic
    distribution ({!generate}'s own quantiles avoid the degenerate
    tails instead). *)

val generate : rng:Wavesyn_util.Prng.t -> n:int -> ?mix:mix -> unit -> query list
(** Random queries over a domain of size [n], shuffled. *)

type kind_report = {
  kind : string;
  count : int;
  mean_rel_err : float;
  max_rel_err : float;
}

val run : Engine.t -> query list -> kind_report list
(** Execute the workload; relative errors use sanity bound 1 against
    the exact answers (quantile error is the domain distance between
    estimated and exact quantile positions, normalized by the domain
    size). Kinds with no queries are omitted. *)
