(* Spans recorded from outside the library: the benchmark wraps each
   layer's public functions and closures and records one span per call.

   A span's self time is its duration minus what its children cover;
   children never overlap (one thread, strictly nested calls).  Every
   span is folded into per-layer totals as it closes — a 20 s window
   closes tens of millions — and the first [keep] spans are also kept in
   memory, off the OCaml heap, and written out when the run ends. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

let ints n = Array1.create int c_layout n

type t = {
  layers : string array;
  self_ns : int array;  (* per layer *)
  total_ns : int array;  (* per layer, children included *)
  calls : int array;  (* per layer *)
  (* The open spans, innermost last. *)
  st_layer : int array;
  st_start : int array;
  st_child : int array;  (* time covered by closed children *)
  st_kept : int array;  (* index among kept spans, or -1 *)
  mutable depth : int;
  (* The first spans, as recorded. *)
  keep : int;
  mutable kept : int;
  mutable seen : int;
  k_start : ints;
  k_stop : ints;
  k_layer : ints;
  k_parent : ints;  (* -1 for a root span *)
}

let max_depth = 64

let create ?(keep = 100_000) layers =
  let k = List.length layers in
  {
    layers = Array.of_list layers;
    self_ns = Array.make k 0;
    total_ns = Array.make k 0;
    calls = Array.make k 0;
    st_layer = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_kept = Array.make max_depth 0;
    depth = 0;
    keep;
    kept = 0;
    seen = 0;
    k_start = ints keep;
    k_stop = ints keep;
    k_layer = ints keep;
    k_parent = ints keep;
  }

let layer_id t name =
  let rec find i =
    if i = Array.length t.layers then invalid_arg ("Tracer: layer " ^ name)
    else if t.layers.(i) = name then i
    else find (i + 1)
  in
  find 0

let enter_at t layer start =
  let d = t.depth in
  t.st_layer.(d) <- layer;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  t.seen <- t.seen + 1;
  if t.kept < t.keep then begin
    let i = t.kept in
    t.kept <- i + 1;
    t.k_start.{i} <- start;
    t.k_layer.{i} <- layer;
    t.k_parent.{i} <- (if d = 0 then -1 else t.st_kept.(d - 1));
    t.st_kept.(d) <- i
  end
  else t.st_kept.(d) <- -1;
  t.depth <- d + 1

(* Close the innermost open span at [stop]. *)
let leave_at t stop =
  let d = t.depth - 1 in
  t.depth <- d;
  let l = t.st_layer.(d) and dur = stop - t.st_start.(d) in
  t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_child.(d);
  t.total_ns.(l) <- t.total_ns.(l) + dur;
  t.calls.(l) <- t.calls.(l) + 1;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let i = t.st_kept.(d) in
  if i >= 0 then t.k_stop.{i} <- stop

let span t layer f =
  enter_at t layer (Util.now_ns ());
  match f () with
  | v ->
    leave_at t (Util.now_ns ());
    v
  | exception e ->
    leave_at t (Util.now_ns ());
    raise e

(* A child of the open span whose time the library measured itself
   ([ns] long, ending at [stop]): no clock of ours brackets it. *)
let child t layer ~stop ~ns =
  enter_at t layer (stop - ns);
  leave_at t stop

(* Forget every span: the timed window starts here.  No span may be open. *)
let reset t =
  assert (t.depth = 0);
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0;
  Array.fill t.total_ns 0 (Array.length t.total_ns) 0;
  Array.fill t.calls 0 (Array.length t.calls) 0;
  t.kept <- 0;
  t.seen <- 0

let self_ms t name = float_of_int t.self_ns.(layer_id t name) *. 1e-6
let calls t name = t.calls.(layer_id t name)

(* The share of [root]'s time that no child span covers. *)
let residual_share t root =
  let l = layer_id t root in
  float_of_int t.self_ns.(l) /. float_of_int (max 1 t.total_ns.(l))

(* One line per kept span: index, parent, layer, start (ns from the
   first span) and duration (ns). *)
let write t path =
  let oc = open_out path in
  let t0 = if t.kept > 0 then t.k_start.{0} else 0 in
  Printf.fprintf oc "# first %d of %d spans\nspan\tparent\tlayer\tstart_ns\tdur_ns\n"
    t.kept t.seen;
  for i = 0 to t.kept - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" i t.k_parent.{i}
      t.layers.(t.k_layer.{i})
      (t.k_start.{i} - t0)
      (t.k_stop.{i} - t.k_start.{i})
  done;
  close_out oc
