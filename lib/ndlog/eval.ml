(* Bottom-up evaluation of NDlog programs.

   Two evaluators over the same rule-application core:
   - [naive]: re-derives everything from the full database each round;
   - [seminaive]: classic delta iteration, per stratum.

   Both respect the stratification computed by {!Analysis}: strata are
   evaluated bottom-up; aggregate rules of a stratum run once at stratum
   entry (their body predicates are strictly lower, hence complete);
   remaining rules run to fixpoint.

   Joins are index-aware: a positive body literal whose argument
   positions are already ground under the current environment is
   answered from a {!Store.lookup} secondary index instead of a full
   relation scan; literals with no ground position (and delta literals,
   whose relation is the small delta set itself) fall back to the scan.
   Rule bodies are reordered most-bound-first ([order_body]) so that
   ground positions exist as early as possible.  Aggregate rules whose
   body is a single positive atom over distinct variables are answered
   from a {!Store.groups} grouped index probe instead of enumerating
   environments, and semi-naive delta activations join a whole round's
   delta group-at-a-time.  All optimizations are observable through the
   per-run {!stats}; the test suite checks the fixpoints, rounds and
   derivation counts by property against a textbook reference evaluator
   (source-order nested loops, one activation per delta tuple).

   Instrumentation is per run: callers pass a {!counters} accumulator
   (or read the [stats] field of the {!outcome}); there is no global
   mutable state, so concurrent evaluations never interfere.

   Evaluation is guarded by [max_rounds]; a program that fails to reach a
   fixpoint within the bound (e.g. distance-vector count-to-infinity) is
   reported as not converged rather than looping forever. *)

module Sset = Set.Make (String)

exception Eval_error of string

(* ------------------------------------------------------------------ *)
(* Instrumentation. *)

type stats = {
  index_hits : int;  (* joins answered from a secondary index *)
  scans : int;  (* joins answered by a full relation scan *)
  enumerated : int;  (* candidate tuples visited by joins *)
  matched : int;  (* candidates that unified with the pattern *)
  groups : int;  (* delta groups formed by the batched join *)
  group_probes : int;  (* grouped delta probes issued *)
  delta_tuples : int;  (* delta tuples fed through delta joins *)
  strata_skipped : int;  (* view strata skipped by dirty tracking *)
  refresh_fallbacks : int;  (* touched strata recomputed from scratch *)
}

type outcome = {
  db : Store.t;
  rounds : int;  (* total fixpoint rounds across strata *)
  derivations : int;  (* head tuples produced, counting duplicates *)
  converged : bool;
  stats : stats;  (* join counters of this run *)
}

let zero_stats =
  {
    index_hits = 0;
    scans = 0;
    enumerated = 0;
    matched = 0;
    groups = 0;
    group_probes = 0;
    delta_tuples = 0;
    strata_skipped = 0;
    refresh_fallbacks = 0;
  }

let add_stats a b =
  {
    index_hits = a.index_hits + b.index_hits;
    scans = a.scans + b.scans;
    enumerated = a.enumerated + b.enumerated;
    matched = a.matched + b.matched;
    groups = a.groups + b.groups;
    group_probes = a.group_probes + b.group_probes;
    delta_tuples = a.delta_tuples + b.delta_tuples;
    strata_skipped = a.strata_skipped + b.strata_skipped;
    refresh_fallbacks = a.refresh_fallbacks + b.refresh_fallbacks;
  }

(* A mutable accumulator for one evaluation run.  Each run owns its own
   record, so counts never bleed between runs. *)
type counters = {
  mutable c_index_hits : int;
  mutable c_scans : int;
  mutable c_enumerated : int;
  mutable c_matched : int;
  mutable c_groups : int;
  mutable c_group_probes : int;
  mutable c_delta_tuples : int;
  mutable c_strata_skipped : int;
  mutable c_refresh_fallbacks : int;
}

let counters () =
  {
    c_index_hits = 0;
    c_scans = 0;
    c_enumerated = 0;
    c_matched = 0;
    c_groups = 0;
    c_group_probes = 0;
    c_delta_tuples = 0;
    c_strata_skipped = 0;
    c_refresh_fallbacks = 0;
  }

let snapshot c =
  {
    index_hits = c.c_index_hits;
    scans = c.c_scans;
    enumerated = c.c_enumerated;
    matched = c.c_matched;
    groups = c.c_groups;
    group_probes = c.c_group_probes;
    delta_tuples = c.c_delta_tuples;
    strata_skipped = c.c_strata_skipped;
    refresh_fallbacks = c.c_refresh_fallbacks;
  }

let accumulate c (s : stats) =
  c.c_index_hits <- c.c_index_hits + s.index_hits;
  c.c_scans <- c.c_scans + s.scans;
  c.c_enumerated <- c.c_enumerated + s.enumerated;
  c.c_matched <- c.c_matched + s.matched;
  c.c_groups <- c.c_groups + s.groups;
  c.c_group_probes <- c.c_group_probes + s.group_probes;
  c.c_delta_tuples <- c.c_delta_tuples + s.delta_tuples;
  c.c_strata_skipped <- c.c_strata_skipped + s.strata_skipped;
  c.c_refresh_fallbacks <- c.c_refresh_fallbacks + s.refresh_fallbacks

let note_stratum_skipped c = c.c_strata_skipped <- c.c_strata_skipped + 1
let note_refresh_fallback c = c.c_refresh_fallbacks <- c.c_refresh_fallbacks + 1

let pp_stats ppf s =
  Fmt.pf ppf
    "index_hits=%d scans=%d enumerated=%d matched=%d groups=%d \
     group_probes=%d delta_tuples=%d strata_skipped=%d refresh_fallbacks=%d"
    s.index_hits s.scans s.enumerated s.matched s.groups s.group_probes
    s.delta_tuples s.strata_skipped s.refresh_fallbacks

(* ------------------------------------------------------------------ *)
(* Rule application. *)

(* The argument positions of [args] that are ground under [env], with
   their values.  Only bare variables and constants are considered —
   complex expressions are left to [Env.match_args], which may only
   evaluate them against a concrete candidate tuple (evaluating eagerly
   here could raise where a scan over an empty relation would not). *)
let ground_positions env (args : Ast.expr list) : (int * Value.t) list =
  let rec go i = function
    | [] -> []
    | Ast.Const v :: rest -> (i, v) :: go (i + 1) rest
    | Ast.Var x :: rest -> (
      match Env.find_opt x env with
      | Some v -> (i, v) :: go (i + 1) rest
      | None -> go (i + 1) rest)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 args

(* The candidate tuples for matching [args] against [pred] under [env]:
   an indexed lookup when some argument position is ground, the full
   relation otherwise.  The single source of index-aware candidate
   selection — shared by [body_envs] and the strand executor
   ({!Plan.execute}, through [join_envs]). *)
let candidates_c st (db : Store.t) env pred (args : Ast.expr list) :
    Store.Tset.t =
  match ground_positions env args with
  | [] ->
    st.c_scans <- st.c_scans + 1;
    Store.relation pred db
  | bound ->
    st.c_index_hits <- st.c_index_hits + 1;
    Store.lookup pred ~cols:(List.map fst bound) ~key:(List.map snd bound) db

(* One join step: extend [env] with every tuple of [pred] matching
   [args].  Exposed for the dataflow strands. *)
let join_envs_c st (db : Store.t) env pred (args : Ast.expr list) : Env.t list =
  Store.Tset.fold
    (fun tuple acc ->
      st.c_enumerated <- st.c_enumerated + 1;
      match Env.match_args env args tuple with
      | Some env' ->
        st.c_matched <- st.c_matched + 1;
        env' :: acc
      | None -> acc)
    (candidates_c st db env pred args)
    []

(* Enumerate all satisfying environments for [body] against [db],
   starting from [env0] and prepending to [acc]. *)
let body_envs_from st (db : Store.t) env0 (body : Ast.lit list) acc :
    Env.t list =
  let rec go env lits acc =
    match lits with
    | [] -> env :: acc
    | lit :: rest -> (
      match lit with
      | Ast.Pos a ->
        Store.Tset.fold
          (fun tuple acc ->
            st.c_enumerated <- st.c_enumerated + 1;
            match Env.match_args env a.args tuple with
            | Some env' ->
              st.c_matched <- st.c_matched + 1;
              go env' rest acc
            | None -> acc)
          (candidates_c st db env a.pred a.args)
          acc
      | Ast.Neg a ->
        let tuple =
          Array.of_list (List.map (Env.eval env) a.args)
        in
        if Store.mem a.pred tuple db then acc else go env rest acc
      | Ast.Assign (x, e) -> (
        let v = Env.eval env e in
        match Env.find_opt x env with
        | None -> go (Env.bind x v env) rest acc
        | Some v' -> if Value.equal v v' then go env rest acc else acc)
      | Ast.Cond (c, a, b) ->
        if Env.eval_cmp c (Env.eval env a) (Env.eval env b) then
          go env rest acc
        else acc)
  in
  go env0 body acc

let body_envs_c st db body = body_envs_from st db Env.empty body []

(* Public wrappers: the optional accumulator defaults to a fresh
   throwaway record (the caller did not ask for counts). *)
let join_envs ?(stats = counters ()) db env pred args =
  join_envs_c stats db env pred args

let body_envs ?(stats = counters ()) db body = body_envs_c stats db body

(* Instantiate a plain (aggregate-free) head under [env]. *)
let head_tuple env (h : Ast.head) : Store.Tuple.t =
  Array.of_list
    (List.map
       (function
         | Ast.Plain e -> Env.eval env e
         | Ast.Agg _ -> raise (Eval_error "aggregate head in plain context"))
       h.head_args)

(* Positions (body-literal indexes) whose positive atom's predicate is in
   [rec_preds]; used to pick delta positions. *)
let delta_positions rec_preds (body : Ast.lit list) : int list =
  List.mapi (fun i lit -> (i, lit)) body
  |> List.filter_map (fun (i, lit) ->
         match lit with
         | Ast.Pos a when Sset.mem a.Ast.pred rec_preds -> Some i
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* Join planning: greedy most-bound-first literal ordering.

   Reordering preserves the satisfying-environment set: positive atoms
   constrain the same variables whether they bind or filter, and a
   literal is only scheduled once every variable it *needs* (negated
   atoms, comparisons, assignment right-hand sides) is bound.  For any
   safe rule the earliest remaining literal in source order is always
   eligible — everything before it has already run — so the scheduler
   is total. *)

let lit_vars (l : Ast.lit) : Ast.Sset.t =
  Ast.vars_of_lit Ast.Sset.empty l

let needs_of (l : Ast.lit) : Ast.Sset.t =
  match l with
  | Ast.Pos _ -> Ast.Sset.empty  (* joins bind their unbound variables *)
  | Ast.Neg a -> Ast.vars_of_atom Ast.Sset.empty a
  | Ast.Cond (_, e1, e2) ->
    Ast.vars_of_expr (Ast.vars_of_expr Ast.Sset.empty e1) e2
  | Ast.Assign (_, e) -> Ast.vars_of_expr Ast.Sset.empty e

(* How many argument positions of a positive atom are ground once the
   variables in [bound] are: bare bound variables and constants. *)
let boundness bound (a : Ast.atom) : int =
  List.fold_left
    (fun n (e : Ast.expr) ->
      match e with
      | Ast.Const _ -> n + 1
      | Ast.Var x when Ast.Sset.mem x bound -> n + 1
      | _ -> n)
    0 a.Ast.args

(* Reorder [body] for evaluation: cheap filters (assignments,
   comparisons, negations) run as soon as their inputs are bound;
   positive atoms are scheduled most-bound-first, breaking ties by
   smaller relation ([card]) and then source order.  [bound] seeds the
   variable set (e.g. the variables a delta literal binds). *)
let order_body ?(card = fun _ -> 0) ?(bound = Ast.Sset.empty)
    (body : Ast.lit list) : Ast.lit list =
  let rank bound (l : Ast.lit) =
    (* Lower ranks first; eligibility already checked. *)
    match l with
    | Ast.Assign _ -> (0, 0, 0)
    | Ast.Cond _ -> (1, 0, 0)
    | Ast.Neg _ -> (2, 0, 0)
    | Ast.Pos a -> (3, List.length a.Ast.args - boundness bound a, card a.Ast.pred)
  in
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let eligible =
        List.filter
          (fun (_, l) -> Ast.Sset.subset (needs_of l) bound)
          remaining
      in
      let pick =
        match eligible with
        | [] -> List.hd remaining  (* unsafe rule: fall back to source order *)
        | e :: es ->
          (* Source order is preserved by [filter], so ties keep the
             earliest literal. *)
          List.fold_left
            (fun ((_, bl) as best) ((_, l) as cand) ->
              if Stdlib.compare (rank bound l) (rank bound bl) < 0 then cand
              else best)
            e es
      in
      let i, l = pick in
      let remaining = List.filter (fun (j, _) -> j <> i) remaining in
      go (Ast.Sset.union bound (lit_vars l)) remaining (l :: acc)
  in
  go bound (List.mapi (fun i l -> (i, l)) body) []

(* The variables a positive atom binds when it is evaluated first (its
   bare variable arguments). *)
let atom_binds (a : Ast.atom) : Ast.Sset.t =
  List.fold_left
    (fun s (e : Ast.expr) ->
      match e with Ast.Var x -> Ast.Sset.add x s | _ -> s)
    Ast.Sset.empty a.Ast.args

(* ------------------------------------------------------------------ *)
(* Batched delta joins.

   Textbook semi-naive evaluation seeds one environment per delta tuple
   and replays the whole rest of the body — index probes included — per
   activation.  The batched join instead groups the round's delta by
   the columns the rest of the body actually reads ([group_vars]), and
   per group runs the probing part of the body once from the group key
   alone ([split_shared]); each delta tuple then only pays a pattern
   match plus the residual filters.  The satisfying-environment set is
   order-independent for safe rules, so both derive exactly the same
   head tuples the same number of times — checked by property against
   the test suite's reference evaluator.

   Group-variable choice: a shared positive atom's probe is exactly as
   ground as in a per-tuple activation, because every delta variable a
   rest positive atom reads is a group variable (bound from the key).
   Literals that would need other delta variables bind nothing
   (negations, comparisons) and defer to the per-tuple phase freely; an
   assignment defers only when that cannot change a later literal's
   view of its target, otherwise the shared phase stops there. *)

(* Variables of the delta atom that the rest of the body's positive
   atoms read.  Binding them per group makes every shared-phase index
   probe exactly as ground as a per-tuple activation's. *)
let group_vars (delta_atom : Ast.atom) (rest : Ast.lit list) : Ast.Sset.t =
  let pos_vars =
    List.fold_left
      (fun s l ->
        match l with Ast.Pos a -> Ast.vars_of_atom s a | _ -> s)
      Ast.Sset.empty rest
  in
  Ast.Sset.inter (atom_binds delta_atom) pos_vars

(* The delta-atom argument columns carrying the group variables: the
   first bare occurrence of each, in ascending column order.  These are
   the columns {!Store.groups} groups the delta by; [] (group variables
   exhausted or none) degenerates to a single whole-delta group. *)
let group_cols (delta_atom : Ast.atom) (gvars : Ast.Sset.t) :
    (int * string) list =
  let rec go i seen = function
    | [] -> []
    | Ast.Var x :: rest
      when Ast.Sset.mem x gvars && not (Ast.Sset.mem x seen) ->
      (i, x) :: go (i + 1) (Ast.Sset.add x seen) rest
    | _ :: rest -> go (i + 1) seen rest
  in
  go 0 Ast.Sset.empty delta_atom.Ast.args

(* Split the ordered rest body into a [shared] phase evaluable once per
   group (from the group-key bindings alone) and the [per_tuple]
   remainder.  Positive atoms always run shared (their delta-variable
   reads are group variables by construction).  Negations and
   comparisons whose inputs are not yet bound defer freely: they bind
   nothing, so deferring cannot change any later literal's bindings.
   An unschedulable assignment defers only when its target is already
   bound or read by no later literal; otherwise the shared phase stops
   — everything from there on runs per tuple, where the full delta
   bindings restore a per-tuple activation's exact probes. *)
let split_shared gvars (ordered : Ast.lit list) : Ast.lit list * Ast.lit list
    =
  let rec go bound shared deferred = function
    | [] -> (List.rev shared, List.rev deferred)
    | l :: rest ->
      if Ast.Sset.subset (needs_of l) bound then
        go (Ast.Sset.union bound (lit_vars l)) (l :: shared) deferred rest
      else (
        match l with
        | Ast.Neg _ | Ast.Cond _ -> go bound shared (l :: deferred) rest
        | Ast.Assign (x, _)
          when Ast.Sset.mem x bound
               || not
                    (List.exists
                       (fun l' -> Ast.Sset.mem x (needs_of l'))
                       rest) ->
          go bound shared (l :: deferred) rest
        | _ -> (List.rev shared, List.rev_append deferred (l :: rest)))
  in
  go gvars [] [] ordered

(* Apply one (rule, delta position) pair group-at-a-time.  Per group:
   match the delta pattern against each tuple first (a group with no
   matching tuple costs no probes — a per-tuple activation would have
   rejected exactly those tuples), evaluate the shared literals once
   from the key bindings, then recombine every tuple binding with every
   shared environment.  {!Env.merge}'s consistency check reproduces a
   per-tuple activation's filter semantics for delta variables
   constrained by shared literals (e.g. an assignment to a delta
   variable).  Also the strand executor's entry ({!Plan.execute_batch}). *)
let delta_envs ?stats:(st = counters ()) ?(card = fun _ -> 0) (db : Store.t)
    ~delta:((delta_atom : Ast.atom), (delta_db : Store.t))
    ~(rest : Ast.lit list) : Env.t list =
  let gvars = group_vars delta_atom rest in
  let cols_vars = group_cols delta_atom gvars in
  let cols = List.map fst cols_vars in
  let ordered = order_body ~card ~bound:(atom_binds delta_atom) rest in
  let shared, per_tuple = split_shared gvars ordered in
  st.c_group_probes <- st.c_group_probes + 1;
  st.c_delta_tuples <-
    st.c_delta_tuples + Store.cardinal delta_atom.Ast.pred delta_db;
  List.fold_left
    (fun acc (key, tuples) ->
      st.c_groups <- st.c_groups + 1;
      let tuple_envs =
        Store.Tset.fold
          (fun t acc ->
            st.c_enumerated <- st.c_enumerated + 1;
            match Env.match_args Env.empty delta_atom.Ast.args t with
            | Some env ->
              st.c_matched <- st.c_matched + 1;
              env :: acc
            | None -> acc)
          tuples []
      in
      match tuple_envs with
      | [] -> acc
      | _ ->
        let env_g =
          List.fold_left2
            (fun env (_, x) v -> Env.bind x v env)
            Env.empty cols_vars key
        in
        let shared_envs = body_envs_from st db env_g shared [] in
        List.fold_left
          (fun acc env_s ->
            List.fold_left
              (fun acc env_t ->
                match Env.merge env_t env_s with
                | None -> acc
                | Some env -> body_envs_from st db env per_tuple acc)
              acc tuple_envs)
          acc shared_envs)
    []
    (Store.groups delta_atom.Ast.pred ~cols delta_db)

(* ------------------------------------------------------------------ *)
(* Aggregates. *)

(* Aggregate group keys: plain head-argument values ([None] marks an
   aggregate position).  Compared with Value.compare so grouping uses
   the engine's value equality, never Stdlib.compare's independent
   structural notion. *)
module Kmap = Map.Make (struct
  type t = Value.t option list

  let compare_opt a b =
    match a, b with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> Value.compare x y

  let rec compare a b =
    match a, b with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: a', y :: b' ->
      let c = compare_opt x y in
      if c <> 0 then c else compare a' b'
end)

let agg_fold (a : Ast.agg) (vs : Value.t list) : Value.t =
  match a, vs with
  | _, [] -> raise (Eval_error "aggregate over empty group")
  | Ast.Min, v :: rest ->
    List.fold_left (fun m v -> if Value.compare v m < 0 then v else m) v rest
  | Ast.Max, v :: rest ->
    List.fold_left (fun m v -> if Value.compare v m > 0 then v else m) v rest
  | Ast.Count, vs -> Value.Int (List.length vs)
  | Ast.Sum, vs ->
    Value.Int (List.fold_left (fun acc v -> acc + Value.as_int v) 0 vs)

(* Head-argument shape for the grouped-index fast path: each head
   argument mapped to the body-atom column it reads. *)
type agg_slot =
  | Group of int  (* plain head argument: value of this body column *)
  | Fold of Ast.agg * int  (* aggregate over this body column *)

(* The fast-path shape of an aggregate rule: a single positive body atom
   whose arguments are distinct bare variables, every head argument a
   bare variable of the atom.  Such a rule groups the relation by the
   plain-argument columns — precisely a {!Store.groups} probe. *)
let agg_index_shape (r : Ast.rule) : (Ast.atom * agg_slot list) option =
  match r.body with
  | [ Ast.Pos a ] ->
    let distinct_bare =
      let rec go seen = function
        | [] -> true
        | Ast.Var x :: rest ->
          (not (Sset.mem x seen)) && go (Sset.add x seen) rest
        | _ -> false
      in
      go Sset.empty a.args
    in
    if not distinct_bare then None
    else
      let pos_of x =
        let rec go i = function
          | [] -> None
          | Ast.Var y :: _ when y = x -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 a.args
      in
      let slot = function
        | Ast.Plain (Ast.Var x) -> Option.map (fun i -> Group i) (pos_of x)
        | Ast.Agg (agg, x) -> Option.map (fun i -> Fold (agg, i)) (pos_of x)
        | Ast.Plain _ -> None
      in
      let slots = List.map slot r.head.head_args in
      (* [Option.get] is guarded: the [exists is_none] check just
         above guarantees every slot is [Some]. *)
      if List.exists Option.is_none slots then None
      else Some (a, List.map Option.get slots)
  | _ -> None

(* Grouped-index aggregate evaluation: one {!Store.groups} probe over
   the group-by columns replaces the environment enumeration.  Tuples
   of the wrong arity are filtered per group, mirroring the arity check
   [Env.match_args] performs on the slow path; a group left empty by
   the filter is skipped (the slow path would never have formed it). *)
let apply_agg_rule_indexed st db (a : Ast.atom) (slots : agg_slot list) :
    Store.Tuple.t list =
  let arity = List.length a.args in
  let cols =
    List.sort_uniq Stdlib.compare
      (List.filter_map (function Group i -> Some i | Fold _ -> None) slots)
  in
  let col_slot = List.mapi (fun k c -> (c, k)) cols in
  st.c_index_hits <- st.c_index_hits + 1;
  List.fold_left
    (fun acc (key, tuples) ->
      let rows =
        Store.Tset.fold
          (fun t acc ->
            st.c_enumerated <- st.c_enumerated + 1;
            if Array.length t = arity then begin
              st.c_matched <- st.c_matched + 1;
              t :: acc
            end
            else acc)
          tuples []
      in
      match rows with
      | [] -> acc
      | _ ->
        let head =
          Array.of_list
            (List.map
               (function
                 | Group i -> List.nth key (List.assoc i col_slot)
                 | Fold (agg, i) ->
                   agg_fold agg (List.map (fun t -> t.(i)) rows))
               slots)
        in
        head :: acc)
    []
    (Store.groups a.pred ~cols db)

(* Evaluate an aggregate rule: group satisfying environments by the
   plain head arguments, fold the aggregate, emit one tuple per group.
   Single-atom rules take the grouped-index fast path above (same
   output set, one index probe instead of an enumeration). *)
let apply_agg_rule_c st db (r : Ast.rule) : Store.Tuple.t list =
  match agg_index_shape r with
  | Some (a, slots) -> apply_agg_rule_indexed st db a slots
  | None ->
    let envs =
      body_envs_c st db
        (order_body ~card:(fun p -> Store.cardinal p db) r.body)
    in
    let groups =
      List.fold_left
        (fun groups env ->
          let key =
            List.map
              (function
                | Ast.Plain e -> Some (Env.eval env e)
                | Ast.Agg _ -> None)
              r.head.head_args
          in
          let aggvals =
            List.filter_map
              (function
                | Ast.Plain _ -> None
                | Ast.Agg (_, x) -> Some (Env.find x env))
              r.head.head_args
          in
          Kmap.update key
            (function
              | None -> Some [ aggvals ]
              | Some rows -> Some (aggvals :: rows))
            groups)
        Kmap.empty envs
    in
    Kmap.fold
      (fun key rows acc ->
        (* Recombine: plain positions from the key, aggregate positions
           folded over the collected column. *)
        let n_aggs = List.length (List.hd rows) in
        let columns =
          List.init n_aggs (fun i -> List.map (fun row -> List.nth row i) rows)
        in
        let rec build args key cols =
          match args, key with
          | [], [] -> []
          | Ast.Plain _ :: args', Some v :: key' -> v :: build args' key' cols
          | Ast.Agg (a, _) :: args', None :: key' -> (
            match cols with
            | col :: cols' -> agg_fold a col :: build args' key' cols'
            | [] -> raise (Eval_error "aggregate column mismatch"))
          | _ -> raise (Eval_error "aggregate head shape mismatch")
        in
        Array.of_list (build r.head.head_args key columns) :: acc)
      groups []

let apply_agg_rule ?(stats = counters ()) db r = apply_agg_rule_c stats db r

(* ------------------------------------------------------------------ *)
(* Fixpoint drivers. *)

let rules_of_stratum (p : Ast.program) stratum =
  List.filter (fun (r : Ast.rule) -> List.mem r.head.head_pred stratum) p.rules

let split_agg rules =
  List.partition (fun (r : Ast.rule) -> Ast.has_aggregate r.head) rules

(* Derived tuples of applying [rules] with optional per-position deltas
   restricted to [rec_preds].  Bodies are join-planned per application:
   full applications are ordered from an empty binding, delta
   applications move the delta literal to the front (it is the small
   relation) and order the remaining literals under the variables the
   delta binds. *)
let apply_plain_rules st db ?deltas ~rec_preds rules ~count =
  let card p = Store.cardinal p db in
  List.fold_left
    (fun acc (r : Ast.rule) ->
      let produce acc envs =
        List.fold_left
          (fun acc env ->
            incr count;
            Store.add r.head.head_pred (head_tuple env r.head) acc)
          acc envs
      in
      match deltas with
      | None -> produce acc (body_envs_c st db (order_body ~card r.body))
      | Some delta_db ->
        let positions = delta_positions rec_preds r.body in
        List.fold_left
          (fun acc i ->
            let delta_atom =
              match List.nth r.body i with
              | Ast.Pos a -> a
              | _ -> assert false
            in
            if Store.Tset.is_empty (Store.relation delta_atom.Ast.pred delta_db)
            then acc
            else
              let rest = List.filteri (fun j _ -> j <> i) r.body in
              produce acc
                (delta_envs ~stats:st ~card db ~delta:(delta_atom, delta_db)
                   ~rest))
          acc positions)
    Store.empty rules

(* Run a stratum's aggregate rules once and merge their heads. *)
let apply_agg_rules st db agg_rules ~count =
  List.fold_left
    (fun db (r : Ast.rule) ->
      List.fold_left
        (fun db t ->
          incr count;
          Store.add r.Ast.head.Ast.head_pred t db)
        db
        (apply_agg_rule_c st db r))
    db agg_rules

(* Evaluate one stratum to fixpoint, semi-naively. *)
let eval_stratum_seminaive st db stratum (p : Ast.program) ~max_rounds ~rounds
    ~count =
  let rules = rules_of_stratum p stratum in
  let agg_rules, plain_rules = split_agg rules in
  (* Aggregate rules see only lower strata: run them once. *)
  let db = apply_agg_rules st db agg_rules ~count in
  let rec_preds =
    List.fold_left
      (fun s (r : Ast.rule) -> Sset.add r.head.head_pred s)
      Sset.empty plain_rules
  in
  (* Initial round: full evaluation of the stratum's plain rules. *)
  let derived = apply_plain_rules st db ~rec_preds plain_rules ~count in
  let delta = Store.diff derived db in
  let db = Store.union db delta in
  incr rounds;
  let rec loop db delta =
    if Store.is_empty delta then (db, true)
    else if !rounds >= max_rounds then (db, false)
    else begin
      incr rounds;
      let derived =
        apply_plain_rules st db ~deltas:delta ~rec_preds plain_rules ~count
      in
      let delta' = Store.diff derived db in
      loop (Store.union db delta') delta'
    end
  in
  loop db delta

(* Evaluate one stratum to fixpoint, naively (the textbook baseline,
   differentially tested against the semi-naive driver). *)
let eval_stratum_naive st db stratum (p : Ast.program) ~max_rounds ~rounds
    ~count =
  let rules = rules_of_stratum p stratum in
  let agg_rules, plain_rules = split_agg rules in
  let db = apply_agg_rules st db agg_rules ~count in
  let rec loop db =
    if !rounds >= max_rounds then (db, false)
    else begin
      incr rounds;
      let derived =
        apply_plain_rules st db ~rec_preds:Sset.empty plain_rules ~count
      in
      let delta = Store.diff derived db in
      if Store.is_empty delta then (db, true)
      else loop (Store.union db delta)
    end
  in
  loop db

let eval_with stratum_eval ?(max_rounds = 10_000) ?stats (p : Ast.program)
    (info : Analysis.info) (db : Store.t) : outcome =
  let st = counters () in
  let rounds = ref 0 and count = ref 0 in
  let db, converged =
    List.fold_left
      (fun (db, ok) stratum ->
        if not ok then (db, ok)
        else stratum_eval st db stratum p ~max_rounds ~rounds ~count)
      (db, true) info.Analysis.strata
  in
  let s = snapshot st in
  Option.iter (fun c -> accumulate c s) stats;
  { db; rounds = !rounds; derivations = !count; converged; stats = s }

let seminaive ?max_rounds ?stats p info db =
  eval_with eval_stratum_seminaive ?max_rounds ?stats p info db

let naive ?max_rounds ?stats p info db =
  eval_with eval_stratum_naive ?max_rounds ?stats p info db

(* ------------------------------------------------------------------ *)
(* Refresh strata: the dependency analysis behind incremental view
   refresh.

   {!Analysis.strata} is as coarse as stratified semantics allows: a
   plain rule reading an aggregate head lands in the *same* stratum as
   the aggregate (the edge is non-strict).  For incremental maintenance
   that coarseness is costly — a stratum containing any aggregate must
   be recomputed from scratch whenever touched.  Refresh strata refine
   the relaxation with one extra strict edge: a dependency *on* an
   aggregate-defined predicate.  Aggregate heads then sit in strata of
   their own and their plain consumers land strictly above, where they
   can be maintained by seeded delta re-derivation.  The refinement
   respects {!Analysis.strata} (every strict edge there is strict
   here), so bottom-up evaluation per refresh stratum reaches the same
   fixpoint. *)

type refresh_stratum = {
  rs_preds : string list;  (* head predicates of this stratum, sorted *)
  rs_rules : Ast.rule list;  (* their rules, in program order *)
  rs_support : Sset.t;  (* transitive body predicates (incl. negated) *)
  rs_has_agg : bool;
  rs_has_neg : bool;
}

let refresh_strata (p : Ast.program) : refresh_stratum list =
  let heads =
    List.sort_uniq String.compare
      (List.map (fun (r : Ast.rule) -> r.head.head_pred) p.rules)
  in
  let agg_defined =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (r : Ast.rule) ->
           if Ast.has_aggregate r.head then Some r.head.head_pred else None)
         p.rules)
  in
  let rules_of q =
    List.filter (fun (r : Ast.rule) -> r.head.head_pred = q) p.rules
  in
  let neg_preds (r : Ast.rule) =
    List.filter_map
      (function Ast.Neg a -> Some a.Ast.pred | _ -> None)
      r.body
  in
  let has_neg r = neg_preds r <> [] in
  (* Rank heads by relaxation; base predicates rank 0.  An edge
     head <- q is strict when the head is aggregated, q is negated in
     the rule, or q is aggregate-defined. *)
  let rank = Hashtbl.create 16 in
  let rank_of q = Option.value (Hashtbl.find_opt rank q) ~default:0 in
  let n = List.length heads in
  let limit = ((n + 2) * (n + 2)) + 2 in
  let iters = ref 0 in
  let changed = ref true in
  while !changed && !iters <= limit do
    changed := false;
    incr iters;
    List.iter
      (fun (r : Ast.rule) ->
        let h = r.head.head_pred in
        let negs = neg_preds r in
        List.iter
          (fun q ->
            let strict =
              Ast.has_aggregate r.head || List.mem q negs
              || List.mem q agg_defined
            in
            let lo = rank_of q + if strict then 1 else 0 in
            if rank_of h < lo then begin
              Hashtbl.replace rank h lo;
              changed := true
            end)
          (Ast.body_preds r.body))
      p.rules
  done;
  let support_of rules =
    let direct rs =
      List.concat_map (fun (r : Ast.rule) -> Ast.body_preds r.body) rs
    in
    let rec close seen = function
      | [] -> seen
      | q :: rest ->
        if Sset.mem q seen then close seen rest
        else close (Sset.add q seen) (direct (rules_of q) @ rest)
    in
    close Sset.empty (direct rules)
  in
  let group ranked_heads =
    List.map
      (fun (_, preds) ->
        let rules =
          List.filter
            (fun (r : Ast.rule) -> List.mem r.head.head_pred preds)
            p.rules
        in
        {
          rs_preds = preds;
          rs_rules = rules;
          rs_support = support_of rules;
          rs_has_agg =
            List.exists (fun (r : Ast.rule) -> Ast.has_aggregate r.head) rules;
          rs_has_neg = List.exists has_neg rules;
        })
      ranked_heads
  in
  if !changed then
    (* The extra strict edges closed a cycle the ordinary stratification
       tolerates (plain mutual recursion through an aggregate-defined
       predicate).  Collapse to one stratum: always recomputed from
       scratch when touched — correct, just never incremental. *)
    group [ (0, heads) ]
  else
    let module Imap = Map.Make (Int) in
    let by_rank =
      List.fold_left
        (fun m h ->
          Imap.update (rank_of h)
            (function Some l -> Some (h :: l) | None -> Some [ h ])
            m)
        Imap.empty heads
    in
    group
      (Imap.fold
         (fun r preds acc -> (r, List.sort String.compare preds) :: acc)
         by_rank []
      |> List.rev)

(* ------------------------------------------------------------------ *)
(* Entry points. *)

(* Analyze and evaluate a self-contained program (facts included). *)
let run ?max_rounds ?(extra_facts = []) (p : Ast.program) :
    (outcome, Analysis.error) result =
  match Analysis.analyze p with
  | Error e -> Error e
  | Ok info ->
    let db = Store.of_facts (p.facts @ extra_facts) in
    Ok (seminaive ?max_rounds p info db)

let run_exn ?max_rounds ?extra_facts p =
  match run ?max_rounds ?extra_facts p with
  | Ok o -> o
  | Error e -> invalid_arg (Fmt.str "NDlog evaluation failed: %a" Analysis.pp_error e)

(* Convenience: parse source text and run it. *)
let run_source ?max_rounds src : (outcome, string) result =
  match Parser.parse_program src with
  | Error e -> Error e
  | Ok p -> (
    match run ?max_rounds p with
    | Ok o -> Ok o
    | Error e -> Error (Fmt.str "%a" Analysis.pp_error e))
