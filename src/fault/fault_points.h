#ifndef TRACER_FAULT_FAULT_POINTS_H_
#define TRACER_FAULT_FAULT_POINTS_H_

/// Canonical registry of every fault-injection point in the tree.
///
/// Each entry is X("name", "where it fires / what failing there means").
/// The list is the single source of truth consumed in two places:
///   - fault.cc builds FaultRegistry::KnownPoints() from it, so
///     FaultRegistry::Configure rejects a spec naming an unknown point;
///   - tools/lint.py rule fault-point-registry scans the tree for
///     TRACER_FAULT_POINT("...") usages and fails the lint when a name is
///     not listed here, or when an entry here is never used.
///
/// Naming convention: "<subsystem>.<operation>", matching the span and
/// metric naming of src/obs (e.g. "ckpt.write", "serve.score").
#define TRACER_FAULT_POINT_LIST(X)                                          \
  X("ckpt.write",                                                           \
    "nn/serialization: writing the checkpoint body to the temp file fails") \
  X("ckpt.fsync",                                                           \
    "nn/serialization: flushing/fsyncing the temp checkpoint file fails")   \
  X("ckpt.rename",                                                          \
    "nn/serialization: the atomic rename over the destination fails")       \
  X("ckpt.read",                                                            \
    "nn/serialization: opening/reading a checkpoint fails transiently")     \
  X("serve.score",                                                          \
    "serve/server: the primary replica's forward pass fails for a batch")   \
  X("serve.dispatch",                                                       \
    "serve/server: handing a formed batch to the worker pool fails")        \
  X("pool.submit",                                                          \
    "parallel/thread_pool: Submit spuriously rejects a task")               \
  X("pipeline.clean",                                                       \
    "pipeline/emr_pipeline: the cleaning/imputation stage fails "           \
    "transiently")                                                           \
  X("interpret.explain",                                                     \
    "serve/server: computing attributions for an explain batch fails")      \
  X("dist.send",                                                             \
    "dist/transport: writing a framed message to a peer socket fails "      \
    "transiently")                                                           \
  X("dist.recv",                                                             \
    "dist/transport: reading a framed message from a peer socket fails "    \
    "transiently")                                                           \
  X("dist.heartbeat",                                                        \
    "dist/worker: a heartbeat send is dropped; enough in a row and the "    \
    "coordinator evicts the worker")

#endif  // TRACER_FAULT_FAULT_POINTS_H_
