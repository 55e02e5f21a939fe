// The one observer pathway: a non-owning handle to the four passive
// observers (Tracer, MetricsRegistry, FlightRecorder, CommAtlas) and the
// only way one reaches the simulator. Engine hands it to the Bfs1D or
// Bfs2D it builds, simmpi::Cluster holds it, a shrink rebuild hands it on. The
// simulator never reads an observer back: any subset leaves a run
// byte-identical except for the per-level comm/comp breakdown a tracer
// or metrics registry turns on (observing()), as tests/test_observers.cpp
// proves once for every subset. Not an event bus: each observer records
// different fields per event, so the emission sites stay typed.
#pragma once

namespace dbfs::obs {

class Tracer;
class MetricsRegistry;
class FlightRecorder;
class CommAtlas;

struct Observers {
  Tracer* tracer = nullptr;  ///< each pointer: non-owning, null = off
  MetricsRegistry* metrics = nullptr;
  FlightRecorder* flight = nullptr;
  CommAtlas* atlas = nullptr;

  bool observing() const noexcept {
    return tracer != nullptr || metrics != nullptr;
  }

  /// Size for a rows×cols communicator (1×p for 1D): the tracer's and
  /// atlas's rank tables grow to rows·cols (never shrink, so pre-shrink
  /// ranks stay addressable) and the atlas splits locality by that grid.
  void prepare(int rows, int cols) const;

  /// Drop every recording, keeping rank tables and the atlas grid.
  void clear() const;
};

}  // namespace dbfs::obs
