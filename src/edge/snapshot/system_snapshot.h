#ifndef EDGE_SNAPSHOT_SYSTEM_SNAPSHOT_H_
#define EDGE_SNAPSHOT_SYSTEM_SNAPSHOT_H_

#include <string>

#include "edge/common/rng.h"
#include "edge/common/status.h"
#include "edge/core/edge_model.h"
#include "edge/core/train_checkpoint.h"
#include "edge/data/pipeline.h"
#include "edge/data/world.h"
#include "edge/graph/entity_graph.h"
#include "edge/serve/geo_service.h"
#include "edge/text/vocabulary.h"

/// \file
/// Versioned whole-system snapshot (DESIGN.md §13): everything the pipeline
/// needs to reproduce an end-to-end run bit-for-bit — the generative world
/// and its RNG position, the entity vocabulary and co-occurrence graph the
/// training split induced, the trained model as an fp64 edge-model.v1 store,
/// the optional in-flight training state, and the serving configuration. A
/// snapshot directory is the unit the scenario harness replays against
/// (snapshot/scenario.h), and the regression net the networked-sharding and
/// streaming-world refactors are verified under.
///
/// On-disk layout (`Save(dir)`): one file per section plus a MANIFEST. Each
/// section is written atomically; the MANIFEST records every section's byte
/// count and FNV-1a checksum and is itself terminated by an `END <fnv1a-hex>`
/// line over its own body. `Load(dir)` verifies the manifest checksum, then
/// every section's size + checksum, then parses each section under the same
/// untrusted-input discipline as MmapModelStore: truncations, bit flips,
/// absurd sizes, out-of-range indices and non-finite values all come back as
/// a Status — never an abort, never a partially constructed snapshot. The
/// manifest header is `EDGE-SNAPSHOT v2`; v1 snapshots (text model section)
/// are rejected with a Status naming the version.

namespace edge::snapshot {

/// The full captured state. The model travels as its serialized fp64
/// edge-model.v1 store (validated on load, and exactly what a GeoService
/// serves from); everything else is held as parsed values.
struct SystemSnapshot {
  /// The generative world: enough to rebuild the TweetGenerator, its
  /// gazetteer, and therefore the NER — all pure functions of this config.
  data::WorldConfig world;

  /// Scenario/generator stream position; a replay that should continue
  /// where the capture left off restores this instead of reseeding.
  Rng::State rng;

  /// Training-split entity vocabulary (token -> occurrence count).
  text::Vocabulary vocabulary;

  /// The co-occurrence entity graph with its real edge weights. The model
  /// store only carries node names (inference needs no edges), so this
  /// section is what preserves graph structure across a snapshot/restore
  /// cycle.
  graph::EntityGraph graph;

  /// Serialized edge-model.v1 store at fp64 (core/model_store.h), the
  /// `model` section. Load checks it under StoreVerify::kFull and requires
  /// its vocabulary to match the graph section id for id.
  std::string model_store;

  /// Serving configuration the scenario harness replays under.
  serve::GeoServiceOptions serve_options;

  /// Optional in-flight training state (EDGE-TRAINSTATE v1), for snapshots
  /// taken mid-run.
  bool has_train_state = false;
  core::TrainState train_state;
};

/// Captures a snapshot from live components: serializes `model` (which must
/// be fitted), takes its co-occurrence graph, and builds the entity
/// vocabulary from the dataset's training split. The snapshot RNG starts at
/// the world seed's stream head.
Result<SystemSnapshot> CaptureSystemSnapshot(const core::EdgeModel& model,
                                             const data::WorldConfig& world,
                                             const data::ProcessedDataset& dataset,
                                             const serve::GeoServiceOptions& options);

/// Writes every section plus the MANIFEST into `dir` (created if missing).
/// Each file is written atomically (fault point io.snapshot.write).
Status SaveSystemSnapshot(const SystemSnapshot& snapshot, const std::string& dir);

/// Loads and fully validates a snapshot directory (fault point
/// io.snapshot.read). Any corruption — in the manifest, a section's bytes,
/// or a section's content — is a Status error.
Result<SystemSnapshot> LoadSystemSnapshot(const std::string& dir);

/// Section (de)serializers, exposed for targeted corruption tests. Every
/// parser is total over arbitrary bytes: malformed input is a Status.
std::string SerializeWorldConfig(const data::WorldConfig& world);
Result<data::WorldConfig> ParseWorldConfig(const std::string& content);
std::string SerializeVocabulary(const text::Vocabulary& vocabulary);
Result<text::Vocabulary> ParseVocabulary(const std::string& content);
std::string SerializeEntityGraph(const graph::EntityGraph& graph);
Result<graph::EntityGraph> ParseEntityGraph(const std::string& content);
std::string SerializeServeOptions(const serve::GeoServiceOptions& options);
Result<serve::GeoServiceOptions> ParseServeOptions(const std::string& content);

}  // namespace edge::snapshot

#endif  // EDGE_SNAPSHOT_SYSTEM_SNAPSHOT_H_
