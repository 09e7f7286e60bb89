// Acceptance test for the compressed segment storage: retrieval over the
// mmap-backed MOAIF02 index must be *bit-identical* to retrieval over the
// in-memory index, for every registered strategy, sequentially and under
// SearchBatch concurrency (the cursor path shares the SparseIndexCache
// with the in-memory path, so this doubles as a TSan target).
//
// Two databases opened from the same config hold identical collections;
// one of them executes over a segment written by the other. A third check
// round-trips the file *through* the segment (ToInvertedFile) and runs
// every strategy over the decoded copy via the registry directly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/registry.h"
#include "ir/query_gen.h"
#include "storage/segment/segment_reader.h"
#include "test_util.h"

namespace moa {
namespace {

using testutil::ForcedOptions;
using testutil::Requests;

DatabaseConfig TestConfig() {
  DatabaseConfig config;
  config.collection.num_docs = 1500;
  config.collection.vocabulary = 2500;
  config.collection.mean_doc_length = 100;
  config.collection.seed = 74755;
  config.fragmentation.small_volume_fraction = 0.05;
  return config;
}

class SegmentParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto in_memory = MmDatabase::Open(TestConfig());
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    in_memory_ = std::move(in_memory).ValueOrDie().release();

    segment_path_ =
        new std::string(std::string(::testing::TempDir()) + "/parity.moaseg");
    ASSERT_TRUE(in_memory_->SaveSegment(*segment_path_).ok());

    auto mapped = MmDatabase::Open(TestConfig());
    ASSERT_TRUE(mapped.ok());
    mapped_ = std::move(mapped).ValueOrDie().release();
    Status attached = mapped_->AttachSegment(*segment_path_);
    ASSERT_TRUE(attached.ok()) << attached.ToString();

    QueryWorkloadConfig qconfig;
    qconfig.num_queries = 24;
    qconfig.terms_per_query = 4;
    qconfig.distribution = QueryTermDistribution::kMixed;
    qconfig.seed = 4242;
    queries_ = new std::vector<Query>(
        GenerateQueries(in_memory_->collection(), qconfig).ValueOrDie());
  }

  static MmDatabase* in_memory_;
  static MmDatabase* mapped_;
  static std::vector<Query>* queries_;
  static std::string* segment_path_;
};

MmDatabase* SegmentParityTest::in_memory_ = nullptr;
MmDatabase* SegmentParityTest::mapped_ = nullptr;
std::vector<Query>* SegmentParityTest::queries_ = nullptr;
std::string* SegmentParityTest::segment_path_ = nullptr;

void ExpectIdenticalTopN(const TopNResult& a, const TopNResult& b,
                         const char* label) {
  ASSERT_EQ(a.items.size(), b.items.size()) << label;
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].doc, b.items[i].doc) << label << " rank " << i;
    // Bit-identical, not approximately equal: the cursor path must run
    // the exact same float operations in the same order.
    EXPECT_EQ(a.items[i].score, b.items[i].score) << label << " rank " << i;
  }
}

TEST_F(SegmentParityTest, SegmentIsAttached) {
  ASSERT_TRUE(mapped_->has_segment());
  EXPECT_TRUE(mapped_->segment()->has_impacts());
  EXPECT_TRUE(mapped_->segment()->CheckIntegrity().ok());
  // The strategy sweep below must exercise the *lazy* impact-order path:
  // SaveSegment writes the MOAFRG01 sidecar, so the Fagin/champion
  // accesses run over the fragment directory, not the single-fragment
  // fallback.
  EXPECT_TRUE(mapped_->segment()->has_fragment_directory());
  EXPECT_FALSE(in_memory_->has_segment());
}

TEST_F(SegmentParityTest, EveryStrategyMatchesBitForBitOverMmap) {
  for (PhysicalStrategy s : AllStrategies()) {
    const QueryOptions opts = ForcedOptions(s);
    for (const Query& q : *queries_) {
      auto expected = in_memory_->Search(QueryRequest{q, 10, opts});
      auto actual = mapped_->Search(QueryRequest{q, 10, opts});
      ASSERT_TRUE(expected.ok()) << StrategyName(s);
      ASSERT_TRUE(actual.ok()) << StrategyName(s) << ": "
                               << actual.status().ToString();
      EXPECT_EQ(expected.ValueOrDie().strategy, actual.ValueOrDie().strategy);
      ExpectIdenticalTopN(expected.ValueOrDie().top, actual.ValueOrDie().top,
                          StrategyName(s));
    }
  }
}

TEST_F(SegmentParityTest, SearchBatchOverMmapMatchesSequentialInMemory) {
  // search_batch_test's contract, now with the batch side reading
  // compressed blocks out of the mapping from 4 worker threads.
  for (PhysicalStrategy s : AllStrategies()) {
    const QueryOptions opts = ForcedOptions(s);

    std::vector<SearchResult> sequential;
    for (const Query& q : *queries_) {
      auto r = in_memory_->Search(QueryRequest{q, 10, opts});
      ASSERT_TRUE(r.ok()) << StrategyName(s);
      sequential.push_back(std::move(r).ValueOrDie());
    }
    auto batch = mapped_->SearchBatch(Requests(*queries_, 10, opts), 4);
    ASSERT_TRUE(batch.ok()) << StrategyName(s) << ": "
                            << batch.status().ToString();
    ASSERT_EQ(batch.ValueOrDie().results.size(), queries_->size());
    for (size_t i = 0; i < queries_->size(); ++i) {
      ExpectIdenticalTopN(sequential[i].top,
                          batch.ValueOrDie().results[i].top, StrategyName(s));
    }
  }
}

TEST_F(SegmentParityTest, PlannerChosenSearchMatchesOverMmap) {
  // Storage-aware planning may legitimately pick different strategies
  // over the mapped segment than over the in-memory file (the segment's
  // decode and access-path signals shift the cost ranking — that is the
  // point of the planner). The parity contract: whatever safe strategy
  // the planner picks over the mapping must be bit-identical to the same
  // strategy over the in-memory file.
  const size_t n = 10;
  for (const Query& q : *queries_) {
    auto actual = mapped_->Search(QueryRequest{q, n});
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(actual.ValueOrDie().planned);
    EXPECT_TRUE(IsSafeStrategy(actual.ValueOrDie().strategy))
        << StrategyName(actual.ValueOrDie().strategy);
    auto expected =
        in_memory_->Execute(actual.ValueOrDie().strategy, q, n);
    ASSERT_TRUE(expected.ok());
    ExpectIdenticalTopN(expected.ValueOrDie(), actual.ValueOrDie().top,
                        "planner");
  }
}

TEST_F(SegmentParityTest, DecodedSegmentDrivesEveryStrategyViaRegistry) {
  // Full round trip through the compressed format: decode the segment
  // back into an InvertedFile, rebuild model + impacts + fragmentation on
  // the decoded copy, and run every strategy through the registry. The
  // decoded index must be indistinguishable from the original.
  auto reader = SegmentReader::Open(*segment_path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto decoded = reader.ValueOrDie()->ToInvertedFile();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  InvertedFile file = std::move(decoded).ValueOrDie();
  auto model = MakeBm25(&file);
  file.BuildImpactOrders(
      [&](TermId t, const Posting& p) { return model->Weight(t, p); });
  Fragmentation fragmentation =
      Fragmentation::Build(file, TestConfig().fragmentation);
  SparseIndexCache cache;

  ExecContext context;
  context.file = &file;
  context.model = model.get();
  context.fragmentation = &fragmentation;
  context.sparse_cache = &cache;

  for (PhysicalStrategy s : AllStrategies()) {
    for (const Query& q : *queries_) {
      auto expected = in_memory_->Execute(s, q, 10);
      auto actual =
          StrategyRegistry::Global().Execute(s, context, q, 10, ExecOptions{});
      ASSERT_TRUE(expected.ok()) << StrategyName(s);
      ASSERT_TRUE(actual.ok()) << StrategyName(s) << ": "
                               << actual.status().ToString();
      ExpectIdenticalTopN(expected.ValueOrDie(), actual.ValueOrDie(),
                          StrategyName(s));
    }
  }
}

TEST_F(SegmentParityTest, AttachRejectsMismatchedSegment) {
  DatabaseConfig other = TestConfig();
  other.collection.num_docs = 500;
  auto db = MmDatabase::Open(other);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(db.ValueOrDie()->AttachSegment(*segment_path_).ok());
  EXPECT_FALSE(db.ValueOrDie()->has_segment());
}

TEST_F(SegmentParityTest, AttachRejectsPayloadBitRot) {
  // One flipped payload byte is invisible to the structural validation in
  // SegmentReader::Open; without the attach-time integrity pass it would
  // silently truncate a posting list and serve wrong top-N results.
  const std::string path =
      std::string(::testing::TempDir()) + "/rot.moaseg";
  std::filesystem::copy_file(
      *segment_path_, path,
      std::filesystem::copy_options::overwrite_existing);
  SegmentHeader header{};
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.read(reinterpret_cast<char*>(&header), sizeof(header));
  const SegmentLayout layout(header);
  fs.seekg(static_cast<std::streamoff>(layout.payload + 3));
  char byte = 0;
  fs.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  fs.seekp(static_cast<std::streamoff>(layout.payload + 3));
  fs.write(&byte, 1);
  fs.close();

  auto db = MmDatabase::Open(TestConfig());
  ASSERT_TRUE(db.ok());
  Status attached = db.ValueOrDie()->AttachSegment(path);
  EXPECT_EQ(attached.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.ValueOrDie()->has_segment());

  // Skipping the payload scan is an explicit, documented opt-out for
  // trusted segments — the corrupt file then attaches structurally.
  AttachSegmentOptions skip;
  skip.verify_payload = false;
  EXPECT_TRUE(db.ValueOrDie()->AttachSegment(path, skip).ok());
  std::remove(path.c_str());
}

TEST_F(SegmentParityTest, AttachRejectsDifferentScoringModel) {
  // Same collection, different scoring model: the segment's stored
  // max_impact bounds were computed under BM25 and would be unsafe for
  // max-score pruning under the language model — attach must refuse.
  DatabaseConfig other = TestConfig();
  other.scoring = ScoringModelKind::kLanguageModel;
  auto db = MmDatabase::Open(other);
  ASSERT_TRUE(db.ok());
  Status attached = db.ValueOrDie()->AttachSegment(*segment_path_);
  EXPECT_EQ(attached.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.ValueOrDie()->has_segment());
}

}  // namespace
}  // namespace moa
