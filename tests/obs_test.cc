// obs/ subsystem: flight-recorder ring semantics (drop-oldest, logical
// clock, canonical ordering), metric registry registration/mutation/
// snapshot/merge invariants, exporter determinism, and the kObsSnapshot
// chunking bridge — every reassembly pinned byte-identical because the
// records are memcpy'd PODs end to end.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "net/wire.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "serve/cluster.h"
#include "gtest/gtest.h"

namespace d3t::obs {
namespace {

TEST(RecorderTest, RecordsAtLogicalClockAndExplicitTimes) {
  Recorder recorder(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.size(), 0u);

  recorder.set_now(100);
  recorder.Record(TraceEventKind::kSourceTick, 3, DoubleBits(1.5));
  recorder.RecordAt(250, TraceEventKind::kDelivery, 7, 3, DoubleBits(1.5));

  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.at(0).at_us, 100);
  EXPECT_EQ(recorder.at(0).kind,
            static_cast<uint16_t>(TraceEventKind::kSourceTick));
  EXPECT_EQ(recorder.at(0).actor, 3u);
  EXPECT_EQ(recorder.at(1).at_us, 250);
  EXPECT_EQ(recorder.at(1).actor, 7u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(RecorderTest, DropsOldestOnWrapAndCountsEverything) {
  Recorder recorder(4);
  for (uint32_t i = 0; i < 10; ++i) {
    recorder.RecordAt(i, TraceEventKind::kDelivery, i);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // The four most recent survive, oldest-first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recorder.at(i).at_us, static_cast<int64_t>(6 + i));
    EXPECT_EQ(recorder.at(i).actor, static_cast<uint32_t>(6 + i));
  }
}

TEST(RecorderTest, ClearResetsRetainedAndCounters) {
  Recorder recorder(4);
  recorder.RecordAt(1, TraceEventKind::kRepair, 2, 3);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.RecordAt(9, TraceEventKind::kRepair, 1, 1);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.at(0).at_us, 9);
}

TEST(RecorderTest, ZeroCapacityIsClampedToOne) {
  Recorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.RecordAt(1, TraceEventKind::kDelivery, 1);
  recorder.RecordAt(2, TraceEventKind::kDelivery, 2);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.at(0).at_us, 2);
}

TEST(RegistryTest, RegistrationIsIdempotentAndKindChecked) {
  Registry registry;
  const MetricId a = registry.Counter("engine.messages");
  ASSERT_NE(a, kInvalidMetricId);
  EXPECT_EQ(registry.Counter("engine.messages"), a);
  // Same name under a different kind is a registration error.
  EXPECT_EQ(registry.Gauge("engine.messages"), kInvalidMetricId);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(RegistryTest, FullRegistryReturnsInvalidAndMutationsAreNoOps) {
  Registry registry(2);
  EXPECT_NE(registry.Counter("a"), kInvalidMetricId);
  EXPECT_NE(registry.Counter("b"), kInvalidMetricId);
  const MetricId overflow = registry.Counter("c");
  EXPECT_EQ(overflow, kInvalidMetricId);
  registry.Add(overflow, 100);  // must not crash or touch anything
  registry.Set(overflow, 1.0);
  registry.Observe(overflow, 1);
  EXPECT_EQ(registry.metric_count(), 2u);
}

TEST(RegistryTest, CountersGaugesHistogramsReadBack) {
  Registry registry;
  const MetricId c = registry.Counter("c");
  const MetricId g = registry.Gauge("g");
  const MetricId h = registry.Histogram("h");
  registry.Add(c);
  registry.Add(c, 41);
  registry.Set(g, 2.5);
  registry.Set(g, -0.5);  // gauges keep the last written value
  registry.Observe(h, 0);
  registry.Observe(h, 1);
  registry.Observe(h, 1023);
  EXPECT_EQ(registry.counter_value(c), 42u);
  EXPECT_DOUBLE_EQ(registry.gauge_value(g), -0.5);
  EXPECT_EQ(registry.histogram_count(h), 3u);
}

TEST(RegistryTest, SnapshotKeepsRegistrationOrderAndExpandsBuckets) {
  Registry registry;
  registry.Add(registry.Counter("first"), 1);
  const MetricId h = registry.Histogram("spans");
  registry.Observe(h, 1);   // bucket 0
  registry.Observe(h, 9);   // bucket 3
  registry.Observe(h, 9);
  registry.Set(registry.Gauge("loss"), 1.25);

  const Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.count, 4u);
  EXPECT_EQ(snapshot.truncated, 0u);
  EXPECT_EQ(snapshot.entries[0].name_hash, HashMetricName("first"));
  EXPECT_EQ(snapshot.entries[0].value, 1u);
  EXPECT_EQ(snapshot.entries[1].name_hash, HashMetricName("spans"));
  EXPECT_EQ(snapshot.entries[1].index, 0u);
  EXPECT_EQ(snapshot.entries[1].value, 1u);
  EXPECT_EQ(snapshot.entries[2].index, 3u);
  EXPECT_EQ(snapshot.entries[2].value, 2u);
  EXPECT_EQ(snapshot.entries[3].name_hash, HashMetricName("loss"));
  EXPECT_DOUBLE_EQ(BitsToDouble(snapshot.entries[3].value), 1.25);

  EXPECT_EQ(SnapshotCounter(snapshot, "first"), 1u);
  EXPECT_DOUBLE_EQ(SnapshotGauge(snapshot, "loss"), 1.25);
  EXPECT_EQ(FindEntry(snapshot, HashMetricName("missing")), nullptr);
}

TEST(RegistryTest, MergeSumsCountersKeepsMaxGaugeAppendsMissing) {
  Registry a;
  a.Add(a.Counter("msgs"), 10);
  a.Set(a.Gauge("loss"), 2.0);
  Registry b;
  b.Add(b.Counter("msgs"), 32);
  b.Set(b.Gauge("loss"), 1.0);
  b.Add(b.Counter("extra"), 7);

  Snapshot merged = a.TakeSnapshot();
  MergeSnapshot(merged, b.TakeSnapshot());
  EXPECT_EQ(SnapshotCounter(merged, "msgs"), 42u);
  EXPECT_DOUBLE_EQ(SnapshotGauge(merged, "loss"), 2.0);  // max wins
  EXPECT_EQ(SnapshotCounter(merged, "extra"), 7u);
  EXPECT_EQ(merged.count, 3u);
}

TEST(RegistryTest, SnapshotsIdenticalIsBytewise) {
  Registry a;
  a.Add(a.Counter("x"), 5);
  Registry b;
  b.Add(b.Counter("x"), 5);
  EXPECT_TRUE(SnapshotsIdentical(a.TakeSnapshot(), b.TakeSnapshot()));
  b.Add(b.Counter("x"), 1);
  EXPECT_FALSE(SnapshotsIdentical(a.TakeSnapshot(), b.TakeSnapshot()));
}

TEST(ExportTest, CanonicalTraceSortsByFullKey) {
  Recorder recorder(8);
  recorder.RecordAt(200, TraceEventKind::kDelivery, 1, 9);
  recorder.RecordAt(100, TraceEventKind::kSourceTick, 2, 1);
  recorder.RecordAt(200, TraceEventKind::kDelivery, 1, 3);
  recorder.RecordAt(200, TraceEventKind::kSourceTick, 0, 0);

  const std::vector<TraceEvent> canonical = CanonicalTrace(recorder);
  ASSERT_EQ(canonical.size(), 4u);
  EXPECT_EQ(canonical[0].at_us, 100);
  EXPECT_EQ(canonical[1].at_us, 200);
  // Equal times order by kind, then actor, then arg.
  EXPECT_EQ(canonical[1].kind,
            static_cast<uint16_t>(TraceEventKind::kSourceTick));
  EXPECT_EQ(canonical[2].arg, 3u);
  EXPECT_EQ(canonical[3].arg, 9u);
}

TEST(ExportTest, DumpTraceIsInsertionOrderInvariant) {
  Recorder forward(8);
  Recorder reverse(8);
  for (int i = 0; i < 5; ++i) {
    forward.RecordAt(10 * i, TraceEventKind::kDelivery,
                     static_cast<uint32_t>(i), static_cast<uint64_t>(i));
  }
  for (int i = 4; i >= 0; --i) {
    reverse.RecordAt(10 * i, TraceEventKind::kDelivery,
                     static_cast<uint32_t>(i), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(DumpTrace(forward), DumpTrace(reverse));
  EXPECT_NE(DumpTrace(forward).find("delivery actor=2 arg=2"),
            std::string::npos);
}

TEST(ExportTest, ChromeTraceJsonNamesEveryEventAndProcess) {
  Recorder recorder(4);
  recorder.RecordAt(1500, TraceEventKind::kFrameTx, 0, 2, 1);
  const std::string json = ChromeTraceJson(recorder, /*pid=*/3, "node3");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"node3\""), std::string::npos);
  EXPECT_NE(json.find("\"frame-tx\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1500"), std::string::npos);
}

// The cell under `header` in the row labelled `label` of a rendered
// table whose cells hold no spaces; empty when either is missing.
std::string SummaryCell(const std::string& table, const std::string& label,
                        const std::string& header) {
  std::istringstream lines(table);
  std::string line;
  std::vector<std::string> headers;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::vector<std::string> cells;
    for (std::string word; words >> word;) cells.push_back(word);
    if (headers.empty()) {
      headers = cells;
      continue;
    }
    if (cells.empty() || cells[0] != label) continue;
    for (size_t c = 0; c < headers.size() && c < cells.size(); ++c) {
      if (headers[c] == header) return cells[c];
    }
  }
  return "";
}

TEST(ExportTest, NodeSummaryTableReadsSnapshotsAndExtras) {
  Registry registry;
  registry.Add(registry.Counter("engine.messages"), 123);
  registry.Set(registry.Gauge("engine.loss_percent"), 4.5);
  registry.Add(registry.Counter("feed.bytes_rx"), 2048);
  const Snapshot snapshot = registry.TakeSnapshot();

  NodeSummaryRow row;
  row.label = "node0";
  row.snapshot = &snapshot;
  row.extra = {"yes"};
  const std::string table =
      NodeSummaryTable({row}, {"identical"}).ToString();
  EXPECT_NE(table.find("node0"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);
  EXPECT_NE(table.find("4.500"), std::string::npos);
  EXPECT_NE(table.find("2.0"), std::string::npos);  // feedKB
  EXPECT_NE(table.find("identical"), std::string::npos);
  EXPECT_NE(table.find("yes"), std::string::npos);

  // A publisher only sends on the feed: its row reads the bytes it sent
  // in feedTxKB, and the receiving node's row reads its bytes in
  // feedRxKB.
  Registry publisher;
  publisher.Add(publisher.Counter("feed.bytes_tx"), 96256);
  const Snapshot sent = publisher.TakeSnapshot();
  NodeSummaryRow feed_row;
  feed_row.label = "feed";
  feed_row.snapshot = &sent;
  feed_row.extra = {"-"};
  const std::string both =
      NodeSummaryTable({row, feed_row}, {"identical"}).ToString();
  EXPECT_EQ(SummaryCell(both, "node0", "feedRxKB"), "2.0");
  EXPECT_EQ(SummaryCell(both, "node0", "feedTxKB"), "0.0");
  EXPECT_EQ(SummaryCell(both, "feed", "feedRxKB"), "0.0");
  EXPECT_EQ(SummaryCell(both, "feed", "feedTxKB"), "94.0");
}

// ---------------------------------------------------------------------------
// kObsSnapshot chunking bridge (serve::MakeObsSnapshotFrames /
// serve::ObsAccumulator)

Snapshot BigSnapshot(size_t entries) {
  Registry registry;
  for (size_t i = 0; i < entries; ++i) {
    registry.Add(registry.Counter("metric." + std::to_string(i)), i + 1);
  }
  return registry.TakeSnapshot();
}

TEST(ObsSnapshotBridgeTest, RoundTripsSnapshotAndTraceByteIdentically) {
  const Snapshot snapshot = BigSnapshot(14);  // 3 entry chunks (6+6+2)
  Recorder recorder(32);
  for (uint32_t i = 0; i < 11; ++i) {  // 3 trace chunks (5+5+1)
    recorder.RecordAt(i * 7, TraceEventKind::kDelivery, i, i * 2, i * 3,
                      static_cast<uint16_t>(i));
  }

  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(/*node=*/2, snapshot, &recorder);
  ASSERT_EQ(frames.size(), 7u);  // header + 3 entry + 3 trace chunks

  serve::ObsAccumulator accumulator;
  for (const net::wire::Frame& frame : frames) {
    ASSERT_EQ(frame.type, net::wire::FrameType::kObsSnapshot);
    // Genuine wire round trip: encode, decode, then accumulate.
    uint8_t image[net::wire::kMaxFrameSize];
    const size_t n = net::wire::Encode(frame, image, sizeof(image));
    ASSERT_GT(n, 0u);
    Result<net::wire::Frame> decoded = net::wire::Decode(image, n);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(accumulator.Accept(decoded->u.obs_snapshot).ok());
  }
  ASSERT_TRUE(accumulator.complete());
  EXPECT_TRUE(SnapshotsIdentical(accumulator.snapshot(), snapshot));
  ASSERT_EQ(accumulator.trace().size(), recorder.size());
  for (size_t i = 0; i < recorder.size(); ++i) {
    EXPECT_EQ(std::memcmp(&accumulator.trace()[i], &recorder.at(i),
                          sizeof(TraceEvent)),
              0);
  }
  EXPECT_EQ(accumulator.recorded(), recorder.recorded());
  EXPECT_EQ(accumulator.dropped(), recorder.dropped());
}

TEST(ObsSnapshotBridgeTest, EmptyStreamIsOneHeaderChunk) {
  const Snapshot empty{};
  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(0, empty, nullptr);
  ASSERT_EQ(frames.size(), 1u);
  serve::ObsAccumulator accumulator;
  ASSERT_TRUE(accumulator.Accept(frames[0].u.obs_snapshot).ok());
  EXPECT_TRUE(accumulator.complete());
  EXPECT_EQ(accumulator.snapshot().count, 0u);
  EXPECT_TRUE(accumulator.trace().empty());
}

TEST(ObsSnapshotBridgeTest, RejectsGapsReordersAndMalformedChunks) {
  const Snapshot snapshot = BigSnapshot(8);
  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(1, snapshot, nullptr);
  ASSERT_GE(frames.size(), 3u);

  {
    // Skipping the header is a precise error.
    serve::ObsAccumulator accumulator;
    EXPECT_FALSE(accumulator.Accept(frames[1].u.obs_snapshot).ok());
  }
  {
    // A gap after the header is a precise error.
    serve::ObsAccumulator accumulator;
    ASSERT_TRUE(accumulator.Accept(frames[0].u.obs_snapshot).ok());
    EXPECT_FALSE(accumulator.Accept(frames[2].u.obs_snapshot).ok());
  }
  {
    // A duplicate chunk is a precise error.
    serve::ObsAccumulator accumulator;
    ASSERT_TRUE(accumulator.Accept(frames[0].u.obs_snapshot).ok());
    ASSERT_TRUE(accumulator.Accept(frames[1].u.obs_snapshot).ok());
    EXPECT_FALSE(accumulator.Accept(frames[1].u.obs_snapshot).ok());
  }
}

TEST(ObsSnapshotBridgeTest, RejectsHeaderTotalsThatDoNotFillTheStream) {
  // A header is untrusted input: an announced event count far beyond
  // what its chunk total can carry is a precise error, never an
  // allocation sized from the wire.
  const std::vector<net::wire::Frame> frames =
      serve::MakeObsSnapshotFrames(0, BigSnapshot(8), nullptr);
  ASSERT_EQ(frames.size(), 3u);  // header + 2 entry chunks
  net::wire::ObsSnapshotPayload header = frames[0].u.obs_snapshot;
  header.words[2] = uint64_t{1} << 60;
  serve::ObsAccumulator huge;
  Status accepted = huge.Accept(header);
  EXPECT_TRUE(accepted.IsInvalidArgument()) << accepted.ToString();

  // One event too many or too few for the total is just as wrong.
  header = frames[0].u.obs_snapshot;
  header.words[2] = 1;
  serve::ObsAccumulator extra;
  EXPECT_TRUE(extra.Accept(header).IsInvalidArgument());
  header = frames[0].u.obs_snapshot;
  header.words[0] = 0;
  serve::ObsAccumulator short_entries;
  EXPECT_TRUE(short_entries.Accept(header).IsInvalidArgument());
}

TEST(RegistryTest, FirstMismatchNamesMissingKindAndValueDrift) {
  Registry expected_registry;
  expected_registry.Add(expected_registry.Counter("a.count"), 3);
  expected_registry.Set(expected_registry.Gauge("a.level"), 0.25);
  const Snapshot expected = expected_registry.TakeSnapshot();

  // A superset reproduces the reference: extra entries are ignored.
  Registry superset;
  superset.Add(superset.Counter("z.extra"), 9);
  superset.Set(superset.Gauge("a.level"), 0.25);
  superset.Add(superset.Counter("a.count"), 3);
  EXPECT_EQ(FirstMismatch(expected, superset.TakeSnapshot()), nullptr);

  auto first_diverging = [&](const Snapshot& actual) -> std::string {
    const SnapshotEntry* entry = FirstMismatch(expected, actual);
    return entry == nullptr ? "" : *expected_registry.NameOf(entry->name_hash);
  };
  Registry missing;
  missing.Set(missing.Gauge("a.level"), 0.25);
  EXPECT_EQ(first_diverging(missing.TakeSnapshot()), "a.count");

  Registry value;
  value.Add(value.Counter("a.count"), 3);
  value.Set(value.Gauge("a.level"), -0.25);
  EXPECT_EQ(first_diverging(value.TakeSnapshot()), "a.level");

  Registry kind;
  kind.Set(kind.Gauge("a.count"), BitsToDouble(3));  // same bits, gauge
  kind.Set(kind.Gauge("a.level"), 0.25);
  EXPECT_EQ(first_diverging(kind.TakeSnapshot()), "a.count");
}

}  // namespace
}  // namespace d3t::obs
