// FrameAssembler / BuildWireFrame unit tests: the non-blocking framing
// layer under the event loop. The regressions pinned here: the old loop
// heap-allocated a fresh buffer per poll iteration and handled at most one
// frame per wakeup — the assembler must keep its capacity across frames
// and surface every buffered frame without another read.
#include "rpc/wire_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "rpc/fault_injector.hpp"
#include "rpc/socket.hpp"

namespace ghba {
namespace {

std::vector<std::uint8_t> Payload(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

std::vector<std::uint8_t> Wire(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(BuildWireFrame(FaultInjector::FramePlan{}, payload, out));
  return out;
}

TEST(FrameAssemblerTest, WholeFrameRoundTrips) {
  FrameAssembler a;
  const auto payload = Payload(37, 0xAB);
  const auto wire = Wire(payload);
  a.Append(wire.data(), wire.size());
  std::vector<std::uint8_t> got;
  ASSERT_EQ(a.Pop(got), FrameAssembler::Next::kFrame);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kNeedMore);
  EXPECT_EQ(a.buffered(), 0u);
}

TEST(FrameAssemblerTest, ByteAtATimeDelivery) {
  FrameAssembler a;
  const auto payload = Payload(19, 0x3C);
  const auto wire = Wire(payload);
  std::vector<std::uint8_t> got;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    a.Append(&wire[i], 1);
    ASSERT_EQ(a.Pop(got), FrameAssembler::Next::kNeedMore) << i;
  }
  a.Append(&wire[wire.size() - 1], 1);
  ASSERT_EQ(a.Pop(got), FrameAssembler::Next::kFrame);
  EXPECT_EQ(got, payload);
}

// Satellite regression: several frames arriving in one read must all come
// out of one Append without waiting for another wakeup.
TEST(FrameAssemblerTest, ManyBufferedFramesDrainInOneAppend) {
  FrameAssembler a;
  std::vector<std::uint8_t> stream;
  const int kFrames = 29;
  for (int i = 0; i < kFrames; ++i) {
    const auto wire = Wire(Payload(1 + static_cast<std::size_t>(i) * 3,
                                   static_cast<std::uint8_t>(i)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  a.Append(stream.data(), stream.size());
  std::vector<std::uint8_t> got;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(a.Pop(got), FrameAssembler::Next::kFrame) << i;
    EXPECT_EQ(got.size(), 1 + static_cast<std::size_t>(i) * 3);
    EXPECT_EQ(got.front(), static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kNeedMore);
}

TEST(FrameAssemblerTest, BadMagicIsCorrupt) {
  // A flipped first byte, and a second byte carrying the kProtocolVersion
  // of a build one revision behind or ahead: valid CRC, still rejected.
  const std::pair<std::size_t, std::uint8_t> kBadMagic[] = {
      {0, static_cast<std::uint8_t>(kFrameMagic0 ^ 0xFF)},
      {1, static_cast<std::uint8_t>(0x48 + kProtocolVersion - 1)},
      {1, static_cast<std::uint8_t>(0x48 + kProtocolVersion + 1)},
  };
  for (const auto& [at, byte] : kBadMagic) {
    FrameAssembler a;
    auto wire = Wire(Payload(8, 1));
    wire[at] = byte;
    a.Append(wire.data(), wire.size());
    std::vector<std::uint8_t> got;
    EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kCorrupt)
        << at << "=" << +byte;
  }
}

TEST(FrameAssemblerTest, BadCrcIsCorrupt) {
  FrameAssembler a;
  auto wire = Wire(Payload(8, 1));
  wire.back() ^= 0x01;  // flip a payload bit; header CRC no longer matches
  a.Append(wire.data(), wire.size());
  std::vector<std::uint8_t> got;
  EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kCorrupt);
}

TEST(FrameAssemblerTest, OversizedLengthIsCorrupt) {
  FrameAssembler a;
  auto wire = Wire(Payload(8, 1));
  // Rewrite the length field (bytes 2..5, little-endian) past the cap.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxWireFrameBytes) + 1;
  wire[2] = static_cast<std::uint8_t>(huge);
  wire[3] = static_cast<std::uint8_t>(huge >> 8);
  wire[4] = static_cast<std::uint8_t>(huge >> 16);
  wire[5] = static_cast<std::uint8_t>(huge >> 24);
  a.Append(wire.data(), wire.size());
  std::vector<std::uint8_t> got;
  EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kCorrupt);
}

// Satellite regression: the assembler reuses its buffer instead of
// reallocating per frame — draining fully must not grow capacity with the
// number of frames processed.
TEST(FrameAssemblerTest, BufferCapacityIsReusedAcrossFrames) {
  FrameAssembler a;
  const auto wire = Wire(Payload(512, 0x77));
  std::vector<std::uint8_t> got;
  a.Append(wire.data(), wire.size());
  ASSERT_EQ(a.Pop(got), FrameAssembler::Next::kFrame);
  const std::size_t cap_after_first = a.capacity();
  for (int i = 0; i < 1000; ++i) {
    a.Append(wire.data(), wire.size());
    ASSERT_EQ(a.Pop(got), FrameAssembler::Next::kFrame);
  }
  EXPECT_EQ(a.capacity(), cap_after_first);
}

TEST(BuildWireFrameTest, DropPlanProducesNothing) {
  FaultInjector::FramePlan plan;
  plan.action = FaultInjector::FrameAction::kDrop;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(BuildWireFrame(plan, Payload(16, 2), out));
}

TEST(BuildWireFrameTest, CorruptPlanBreaksTheCrc) {
  FaultInjector::FramePlan plan;
  plan.action = FaultInjector::FrameAction::kCorrupt;
  plan.mutation_seed = 99;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(BuildWireFrame(plan, Payload(64, 3), out));
  FrameAssembler a;
  a.Append(out.data(), out.size());
  std::vector<std::uint8_t> got;
  EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kCorrupt);
}

TEST(BuildWireFrameTest, TruncatePlanLeavesAShortFrame) {
  FaultInjector::FramePlan plan;
  plan.action = FaultInjector::FrameAction::kTruncate;
  plan.mutation_seed = 7;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(BuildWireFrame(plan, Payload(64, 4), out));
  // The header still advertises the full payload, so the frame reads as
  // incomplete (kNeedMore), exactly like a peer that died mid-send.
  FrameAssembler a;
  a.Append(out.data(), out.size());
  std::vector<std::uint8_t> got;
  EXPECT_EQ(a.Pop(got), FrameAssembler::Next::kNeedMore);
}

}  // namespace
}  // namespace ghba
