(** End-to-end benchmark generation (paper Figure 1, right half).

    trace → \[collective alignment if needed\] → \[wildcard resolution if
    needed\] → coNCePTuaL code generation.  Both trace-rewriting passes are
    gated by their O(r) pre-checks.

    The pipeline lives in {!Pipeline}: one {!Pipeline.config} record, one
    {!Pipeline.run} entry point, observability built in.  This module
    re-exports the stages and adds {!validate_under_noise}. *)

(** Re-exported pipeline stages. *)

module Traversal = Traversal
module Align = Align
module Wildcard = Wildcard
module Collective_map = Collective_map
module Codegen = Codegen
module Cgen = Cgen
module Extrap = Extrap

(** The unified entry point. *)
module Pipeline = Pipeline

(** {1 Fidelity under noise}

    The paper validates a generated benchmark with one clean run per
    platform (Fig. 6/7).  [validate_under_noise] instead samples a
    distribution: each trial perturbs the network (latency scaled by a
    factor in [1, 2), bandwidth by a factor in [0.5, 1)) and applies a
    seeded fault plan, then runs the original application and the
    generated benchmark under identical perturbed conditions and records
    the signed timing error between them.  (For a single clean
    timing/semantics check with span instrumentation, see
    {!Pipeline.validate}.) *)

type noise_sample = {
  ns_seed : int;  (** fault seed used for this trial *)
  ns_latency_factor : float;
  ns_bandwidth_factor : float;
  ns_original : float;  (** original application elapsed, seconds *)
  ns_generated : float;  (** generated benchmark elapsed, seconds *)
  ns_error_pct : float;  (** signed percentage error, generated vs original *)
}

type noise_report = {
  nr_baseline_error_pct : float;  (** error of the clean, unperturbed run *)
  nr_samples : noise_sample list;
  nr_mean_abs_error_pct : float;
  nr_max_abs_error_pct : float;
  nr_stddev_error_pct : float;  (** stddev of the signed errors *)
}

(** [validate_under_noise ~nranks app report] — [report] must have been
    generated from [app] at the same rank count.  All randomness derives
    from [base_seed]; the result is bit-reproducible.
    @param trials number of perturbed runs (default 5).
    @param fault template plan applied to every trial (its [seed] is
      overridden per trial); default: mild latency jitter plus 5% OS
      noise.
    @raise Invalid_argument when [trials < 1]. *)
val validate_under_noise :
  ?net:Mpisim.Netmodel.t ->
  ?trials:int ->
  ?base_seed:int ->
  ?fault:Mpisim.Fault.t ->
  nranks:int ->
  (Mpisim.Mpi.ctx -> unit) ->
  Pipeline.report ->
  noise_report
