(** Id-native evaluation: the rule-application core of {!Eval} over
    flat tuples ({!Flat}) and slot-compiled integer environments.

    Environments bind dense interned ids instead of boxed values,
    pattern matching and join probes compare machine ints, and boxing
    happens only at true system boundaries (builtin calls, ordering
    comparisons, observable output).  Everything here is a {e faithful
    twin} of the boxed evaluator: literal orders come from the same
    planning functions, the index-versus-scan decision is the same test
    on the same positions, and every {!Eval.counters} field is bumped
    at the same point of the same loop — fixpoints, derivation counts
    and join statistics are indistinguishable from {!Eval}'s (checked
    by property against the boxed evaluator).

    Flat databases are mutable and linearly owned; the persistent
    {!Store} remains canonical for model-checker state identity, and
    the id-native path materializes through {!Flat.to_store} at
    observation points. *)

(** {1 Strand execution (the wire path)} *)

type istrand
(** A compiled strand: {!Plan.strand} with its delta decomposition
    pre-planned and its body slot-compiled, once, by {!of_strand}.  The
    compilation is cardinality-independent (like
    {!Plan.execute_batch}'s planning), so one compiled strand serves
    every batch. *)

val of_strand : Plan.strand -> istrand
(** @raise Invalid_argument when the strand has no delta position. *)

val delta_pred : istrand -> string
val head_pred : istrand -> string

val head_loc : istrand -> int option
(** The head atom's location-specifier column, if any. *)

val execute_batch :
  ?stats:Eval.counters ->
  Flat.t ->
  delta_tuples:int array list ->
  istrand ->
  int array list
(** Head id tuples of one strand run over a whole delta batch — the id
    twin of {!Plan.execute_batch}.  Same head multiset and counters;
    the list order differs, so observable consumers materialize and
    sort. *)

val refresh_stratum :
  ?stats:Eval.counters -> Flat.t -> strands:istrand list -> delta:Flat.t -> unit
(** Seeded delta-driven re-derivation of one view refresh stratum
    ({!Eval.refresh_strata}) to fixpoint, mutating the working
    database: it holds the stratum's previous fixpoint on top of the
    current support, [delta] the support tuples added since.  Strands
    whose trigger predicate has delta tuples run through
    {!execute_batch}; new head tuples join the database and become the
    next round's delta.  Sound exactly for plain monotone strata under
    purely additive support change — the incremental refresh loop
    falls back to from-scratch recomputation otherwise. *)

(** {1 Fixpoint drivers} *)

type outcome = {
  rounds : int;
  derivations : int;
  converged : bool;
  stats : Eval.stats;
}
(** {!Eval.outcome} without the database (the caller owns the mutated
    {!Flat.t}). *)

val seminaive :
  ?max_rounds:int ->
  ?stats:Eval.counters ->
  Ast.program ->
  Analysis.info ->
  Flat.t ->
  outcome
(** Semi-naive evaluation to fixpoint, mutating [fdb] — the id twin of
    {!Eval.seminaive}. *)

val seminaive_stratum :
  ?max_rounds:int ->
  ?stats:Eval.counters ->
  Ast.program ->
  string list ->
  Flat.t ->
  bool
(** [seminaive_stratum p preds fdb]: evaluate the single stratum of [p]
    whose heads are [preds] to fixpoint on [fdb] — aggregate rules once
    at entry, plain rules semi-naively.  The from-scratch fallback of
    incremental view refresh. *)

val run_program :
  ?max_rounds:int ->
  Ast.program ->
  (Store.t * outcome, Analysis.error) result
(** Analyze and evaluate a self-contained program id-natively from its
    facts, returning the materialized boxed fixpoint — the differential
    entry point mirroring {!Eval.run}. *)
