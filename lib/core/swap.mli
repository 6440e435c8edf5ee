(** Greedy post-scheduling operation swapping (paper Sections 4.1 and
    5.2).

    Two operations can swap clusters when they use the same kind of
    functional unit and occupy the same kernel cycle (the same slot
    modulo II), which keeps the schedule resource-valid by symmetry.
    Swapping aims to (1) turn global values into locals and (2) balance
    the two subfiles.

    The algorithm is the paper's: repeatedly pick the candidate pair
    whose swap yields the largest reduction of the register estimate —
    the per-cluster MaxLive lower bound, because running the full
    allocator inside the search loop would be too costly — and stop when
    no pair improves it.  The [Exact] estimate (full allocation) is
    provided as an ablation.

    The MaxLive estimate is scored incrementally.  A swap moves
    clusters, never cycles, so the lifetimes and each value's
    per-kernel-slot footprint are computed once per {!improve} call;
    pricing a pair re-homes only the values the two operations produce
    or read, rescans the two clusters' slot rows and undoes the move.
    Both estimates run through one greedy loop, which accepts a strict
    improvement only and takes the first of equal-cost pairs in
    ascending [(a, b)] order, so the swaps taken are those of the
    whole-recompute pass kept as the test oracle
    [test/swap_reference.ml]. *)

open Ncdrf_sched

type estimate =
  | Max_live  (** the paper's lower-bound estimate *)
  | Exact  (** full joint allocation — slower, ablation only *)

type stats = {
  swaps : int;  (** swaps applied *)
  initial_cost : int;  (** estimate before the pass *)
  final_cost : int;  (** estimate after the pass *)
}

(** All swappable pairs of the schedule, in ascending [(a, b)] order:
    distinct clusters, same functional-unit class, same kernel slot.
    A swap keeps every class and slot but changes which pairs cross
    clusters, so the set is only valid for the schedule it was taken
    from. *)
val candidates : Schedule.t -> (int * int) list

(** Run the greedy pass.  Single-cluster schedules are returned
    unchanged.  [max_passes] (default [1000]) bounds the loop; the
    estimate strictly decreases each swap, so it rarely binds. *)
val improve : ?estimate:estimate -> ?max_passes:int -> Schedule.t -> Schedule.t * stats
