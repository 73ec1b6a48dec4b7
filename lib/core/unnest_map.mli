(** The Unnest-Map chain of the Simple method (paper Sec. 5.1).

    One Unnest-Map per location step, chained: each takes a context node
    from the step before and enumerates the step's result nodes with the
    border-transparent global primitives — traversing inter-cluster
    edges the moment they are met, which is precisely the random-I/O
    behaviour the reordered plans avoid. The chain runs as one operator
    over one {!Xnav_store.Store.walker} per step: steps hand each other
    NodeIDs, apply their node tests to tags read in place, and only the
    last step decodes ordpaths, for the nodes it returns. Optional
    per-step duplicate elimination implements the refinement the paper
    cites from Hidders/Michiels to avoid the exponential blow-up of
    nested duplicates. *)

val create :
  Context.t ->
  path:Xnav_xpath.Path.t ->
  dedup:bool ->
  Xnav_store.Node_id.t list ->
  unit ->
  Xnav_store.Store.info option
(** [create ctx ~path ~dedup contexts] evaluates [path] from each
    context in turn. The contexts are read once, up front.
    @raise Invalid_argument if [path] is empty or a context is a border
    record. *)
