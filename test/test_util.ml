(* Shared helpers for the test suites. *)

(* [contains haystack needle]: naive substring search, sufficient for
   asserting on rendered output. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= nh - nn do
      if String.sub haystack !i nn = needle then found := true else incr i
    done;
    !found
  end

(* Heap words [f ()] allocates, from [Gc.quick_stat]: minor plus direct
   major allocations, less the minor words promoted in between, less
   what the bracket itself allocates (the first stat record). The
   runtime folds a domain's allocation into these counters at minor
   collections, so one brackets [f] on each side. *)
let gross_words f =
  Gc.minor ();
  let a = Gc.quick_stat () in
  f ();
  Gc.minor ();
  let b = Gc.quick_stat () in
  int_of_float
    (b.Gc.minor_words -. a.Gc.minor_words
    +. (b.Gc.major_words -. a.Gc.major_words)
    -. (b.Gc.promoted_words -. a.Gc.promoted_words))

let bracket_words = lazy (gross_words ignore)

let words_allocated f = gross_words f - Lazy.force bracket_words
