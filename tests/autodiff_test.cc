#include "edge/nn/autodiff.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/rng.h"
#include "edge/common/thread_pool.h"
#include "edge/nn/init.h"
#include "edge/nn/sparse.h"
#include "gradcheck.h"

namespace edge::nn {
namespace {

using testing::ExpectGradientsMatch;

/// Random matrix with entries bounded away from zero so ReLU kinks and
/// finite differences do not interact.
Matrix RandomAwayFromZero(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double v = rng->Uniform(0.1, 1.0);
      m.At(r, c) = rng->Bernoulli(0.5) ? v : -v;
    }
  }
  return m;
}

std::vector<std::span<const size_t>> Spans(const std::vector<std::vector<size_t>>& ids) {
  return {ids.begin(), ids.end()};
}

TEST(AutodiffTest, ForwardValues) {
  Var a = Param(Matrix::FromRows({{1, 2}, {3, 4}}));
  Var b = Param(Matrix::FromRows({{5, 6}, {7, 8}}));
  EXPECT_EQ(Add(a, b)->value.At(0, 0), 6.0);
  EXPECT_EQ(Sub(b, a)->value.At(1, 1), 4.0);
  EXPECT_EQ(Scale(a, 3.0)->value.At(1, 0), 9.0);
  EXPECT_EQ(MatMul(a, b)->value.At(0, 0), 19.0);
  EXPECT_EQ(SumAll(a)->value.At(0, 0), 10.0);
  EXPECT_EQ(MeanAll(a)->value.At(0, 0), 2.5);
}

TEST(AutodiffTest, ReluForward) {
  Var a = Param(Matrix::FromRows({{-1, 2}, {0, -3}}));
  Var r = Relu(a);
  EXPECT_EQ(r->value.At(0, 0), 0.0);
  EXPECT_EQ(r->value.At(0, 1), 2.0);
  EXPECT_EQ(r->value.At(1, 1), 0.0);
}

TEST(AutodiffTest, AttentionPoolForwardIsSoftmaxWeightedSum) {
  // Scores relu(h_k . q + b) = {1, 0, 1.5} (the middle one clamped by ReLU).
  Var h = Param(Matrix::FromRows({{1, 0}, {-1, 3}, {2, 1}}));
  Var q = Param(Matrix::FromRows({{1}, {-0.5}}));
  Var b = Param(Matrix(1, 1, 0.0));
  std::vector<size_t> ids = {0, 1, 2};
  Var z = AttentionPool(h, {std::span<const size_t>(ids)}, q, b);
  ASSERT_EQ(z->rows(), 1u);
  ASSERT_EQ(z->cols(), 2u);
  double e0 = std::exp(1.0), e1 = std::exp(0.0), e2 = std::exp(1.5);
  double sum = e0 + e1 + e2;
  EXPECT_NEAR(z->value.At(0, 0), (e0 * 1 + e1 * -1 + e2 * 2) / sum, 1e-12);
  EXPECT_NEAR(z->value.At(0, 1), (e0 * 0 + e1 * 3 + e2 * 1) / sum, 1e-12);
  // Without q and b the row is the plain sum of the named rows.
  Var sum_pool = AttentionPool(h, {std::span<const size_t>(ids)}, nullptr, nullptr);
  EXPECT_EQ(sum_pool->value.At(0, 0), 2.0);
  EXPECT_EQ(sum_pool->value.At(0, 1), 4.0);
}

TEST(AutodiffTest, SoftmaxColSumsToOne) {
  // The column softmax lives inside AttentionPool: over identity rows the
  // pooled row is the softmax of the scores {1, 2, 3} itself.
  Var h = Constant(Matrix::Identity(3));
  Var q = Param(Matrix::FromRows({{1.0}, {2.0}, {3.0}}));
  Var b = Param(Matrix(1, 1, 0.0));
  std::vector<size_t> ids = {0, 1, 2};
  Var s = AttentionPool(h, {std::span<const size_t>(ids)}, q, b);
  double total = s->value.Sum();
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(s->value.At(0, 2), s->value.At(0, 0));
}

TEST(AutodiffTest, BackwardThroughSharedNode) {
  // loss = sum(a + a) -> dloss/da == 2 everywhere.
  Var a = Param(Matrix::FromRows({{1, 2}}));
  Var loss = SumAll(Add(a, a));
  Backward(loss);
  EXPECT_EQ(a->grad.At(0, 0), 2.0);
  EXPECT_EQ(a->grad.At(0, 1), 2.0);
}

TEST(AutodiffTest, ConstantsReceiveNoGradient) {
  Var a = Param(Matrix::FromRows({{1, 2}}));
  Var c = Constant(Matrix::FromRows({{3, 4}}));
  Var loss = SumAll(Add(a, c));
  EXPECT_TRUE(loss->requires_grad);
  Backward(loss);
  EXPECT_EQ(a->grad.At(0, 1), 1.0);
}

TEST(AutodiffTest, TopologicalOrderParentsFirst) {
  Var a = Param(Matrix(1, 1, 2.0));
  Var b = Scale(a, 3.0);
  Var c = Add(b, b);
  std::vector<Node*> order = TopologicalOrder(c);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), a.get());
  EXPECT_EQ(order.back(), c.get());
}

class OpGradcheckTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam() * 7919 + 13)};
};

TEST_P(OpGradcheckTest, AddSubScale) {
  Var a = Param(RandomAwayFromZero(3, 2, &rng_));
  Var b = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({a, b}, [&] {
    return SumAll(Scale(Sub(Add(a, b), Scale(b, 0.5)), 1.7));
  });
}

TEST_P(OpGradcheckTest, ElementwiseMul) {
  Var a = Param(RandomAwayFromZero(3, 2, &rng_));
  Var b = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({a, b}, [&] { return SumAll(Mul(Mul(a, b), a)); });
}

TEST_P(OpGradcheckTest, MatMulChain) {
  Var a = Param(RandomAwayFromZero(2, 3, &rng_));
  Var b = Param(RandomAwayFromZero(3, 4, &rng_));
  Var c = Param(RandomAwayFromZero(4, 2, &rng_));
  ExpectGradientsMatch({a, b, c}, [&] { return SumAll(MatMul(MatMul(a, b), c)); });
}

TEST_P(OpGradcheckTest, TransposedMatMulOp) {
  // z = a^T b: the weight-gradient kernel must match MatMul over an explicit
  // transpose bit for bit, and the product must differentiate through both
  // operands.
  Var a = Param(RandomAwayFromZero(4, 3, &rng_));
  Var b = Param(RandomAwayFromZero(4, 2, &rng_));
  Matrix via_transpose = MatMul(Transpose(a), b)->value;
  Matrix direct = MatMulTransposeA(a->value, b->value);
  ASSERT_EQ(direct.rows(), 3u);
  ASSERT_EQ(direct.cols(), 2u);
  for (size_t r = 0; r < direct.rows(); ++r) {
    for (size_t c = 0; c < direct.cols(); ++c) {
      ASSERT_EQ(direct.At(r, c), via_transpose.At(r, c));
    }
  }
  ExpectGradientsMatch({a, b}, [&] { return SumAll(MatMul(Transpose(a), b)); });
}

TEST_P(OpGradcheckTest, TransposedMatMulAttentionShaped) {
  // The attention pooling shape: K = 5 weights against K x D rows, pooled
  // into one row and fed to a linear head.
  std::vector<std::vector<size_t>> ids = {{0, 1, 2, 3, 4}};
  Var h = Param(RandomAwayFromZero(5, 3, &rng_));
  Var q = Param(RandomAwayFromZero(3, 1, &rng_));
  Var b = Param(RandomAwayFromZero(1, 1, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({h, q, b, out_w}, [&] {
    return SumAll(MatMul(AttentionPool(h, Spans(ids), q, b), out_w));
  });
}

TEST_P(OpGradcheckTest, MatMulOddShapesUnderThreads) {
  // Tile-boundary shapes (1 x N, N x 1, prime dims) through the blocked
  // kernels with a multi-thread budget: forward and backward must both stay
  // finite-difference correct at every panel-remainder path.
  ScopedNumThreads scoped(3);
  int seed = GetParam();
  size_t m = static_cast<size_t>(1 + (seed * 5) % 7);    // 1..7 rows
  size_t k = static_cast<size_t>(1 + (seed * 11) % 13);  // 1..13 inner
  Var a = Param(RandomAwayFromZero(m, k, &rng_));
  Var b = Param(RandomAwayFromZero(k, 1, &rng_));
  ExpectGradientsMatch({a, b}, [&] { return SumAll(MatMul(a, b)); });
  Var c = Param(RandomAwayFromZero(m, k, &rng_));
  ExpectGradientsMatch({a, c}, [&] { return SumAll(MatMul(Transpose(a), c)); });
}

TEST_P(OpGradcheckTest, AddRowBroadcast) {
  Var x = Param(RandomAwayFromZero(4, 3, &rng_));
  Var bias = Param(RandomAwayFromZero(1, 3, &rng_));
  ExpectGradientsMatch({x, bias}, [&] { return SumAll(AddRowBroadcast(x, bias)); });
}

TEST_P(OpGradcheckTest, ReluWeighted) {
  Var x = Param(RandomAwayFromZero(3, 3, &rng_));
  Var w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] { return SumAll(MatMul(Relu(x), w)); });
}

TEST_P(OpGradcheckTest, SpMm) {
  CsrMatrix s = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 0.5}, {0, 1, 0.25}, {1, 1, 1.0}, {2, 0, 0.3}, {2, 2, 0.7}});
  Var x = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({x}, [&] { return SumAll(SpMm(&s, x)); });
}

TEST_P(OpGradcheckTest, SpMmAsymmetricWeighted) {
  // Weighted downstream so SpMm backward must transpose (not rely on
  // symmetry of S).
  CsrMatrix s = CsrMatrix::FromTriplets(3, 3, {{0, 1, 2.0}, {1, 2, -1.0}, {2, 0, 0.5}});
  Var x = Param(RandomAwayFromZero(3, 2, &rng_));
  Var w = Param(RandomAwayFromZero(2, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] { return SumAll(MatMul(SpMm(&s, x), w)); });
}

TEST_P(OpGradcheckTest, GatherRowsWithDuplicates) {
  // Pooling gathers the named rows; a repeated id must add its gradient
  // into the shared row once per occurrence.
  Var x = Param(RandomAwayFromZero(4, 3, &rng_));
  Var w = Param(RandomAwayFromZero(3, 1, &rng_));
  std::vector<std::vector<size_t>> ids = {{0, 2, 2, 3}, {2}, {1, 3}};
  ExpectGradientsMatch({x, w}, [&] {
    return SumAll(MatMul(AttentionPool(x, Spans(ids), nullptr, nullptr), w));
  });
}

TEST_P(OpGradcheckTest, TransposeOp) {
  Var x = Param(RandomAwayFromZero(2, 4, &rng_));
  Var w = Param(RandomAwayFromZero(2, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] { return SumAll(MatMul(Transpose(x), w)); });
}

TEST_P(OpGradcheckTest, SoftmaxColOp) {
  // Over identity rows with positive scores the pooled row is softmax(q)^T,
  // so this checks the pooling node's softmax backward on its own.
  Var h = Constant(Matrix::Identity(5));
  Matrix scores = RandomAwayFromZero(5, 1, &rng_);
  for (size_t r = 0; r < scores.rows(); ++r) scores.At(r, 0) = std::abs(scores.At(r, 0));
  Var x = Param(scores);
  Var b = Param(Matrix(1, 1, 0.0));
  Var v = Param(RandomAwayFromZero(5, 1, &rng_));
  std::vector<std::vector<size_t>> ids = {{0, 1, 2, 3, 4}};
  ExpectGradientsMatch({x, v}, [&] {
    return SumAll(MatMul(AttentionPool(h, Spans(ids), x, b), v));
  });
}

TEST_P(OpGradcheckTest, ConcatRowsOp) {
  Var a = Param(RandomAwayFromZero(1, 3, &rng_));
  Var b = Param(RandomAwayFromZero(1, 3, &rng_));
  Var w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({a, b, w}, [&] {
    return SumAll(MatMul(ConcatRows({a, b, a}), w));
  });
}

TEST_P(OpGradcheckTest, AttentionBlock) {
  // The exact attention computation EDGE trains (Eq. 2-4): rows that repeat
  // an id and share ids with each other, pooled and fed to a linear head.
  std::vector<std::vector<size_t>> ids = {{0, 2, 2}, {1, 2}, {3}};
  Var h = Param(RandomAwayFromZero(4, 3, &rng_));
  Var q = Param(RandomAwayFromZero(3, 1, &rng_));
  Var b = Param(RandomAwayFromZero(1, 1, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({h, q, b, out_w}, [&] {
    return SumAll(MatMul(AttentionPool(h, Spans(ids), q, b), out_w));
  });
}

TEST_P(OpGradcheckTest, AttentionPoolConstantEmbeddings) {
  // NoGCN: h is a constant leaf, so only q, b and the head learn.
  std::vector<std::vector<size_t>> ids = {{0, 1, 3}, {1, 2}};
  Var h = Constant(RandomAwayFromZero(4, 3, &rng_));
  Var q = Param(RandomAwayFromZero(3, 1, &rng_));
  Var b = Param(RandomAwayFromZero(1, 1, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({q, b, out_w}, [&] {
    return SumAll(MatMul(AttentionPool(h, Spans(ids), q, b), out_w));
  });
}

TEST_P(OpGradcheckTest, AttentionPoolSingleEntityRows) {
  // K = 1: the softmax weight is 1 whatever the score, so q and b get zero
  // gradient and h gets the head's gradient unchanged.
  std::vector<std::vector<size_t>> ids = {{2}, {0}, {2}};
  Var h = Param(RandomAwayFromZero(3, 4, &rng_));
  Var q = Param(RandomAwayFromZero(4, 1, &rng_));
  Var b = Param(RandomAwayFromZero(1, 1, &rng_));
  Var out_w = Param(RandomAwayFromZero(4, 2, &rng_));
  ExpectGradientsMatch({h, q, b, out_w}, [&] {
    return SumAll(MatMul(AttentionPool(h, Spans(ids), q, b), out_w));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpGradcheckTest, ::testing::Range(0, 6));

// --- AttentionPool against the per-row tape composition it replaced. ---

/// The three ops of that composition, kept here verbatim as the reference:
/// a gather node, a column-softmax node and a z = a^T b node per row.
Var LegacyGatherRows(const Var& x, std::vector<size_t> indices) {
  Matrix value(indices.size(), x->value.cols());
  const size_t cols = value.cols();
  for (size_t i = 0; i < indices.size(); ++i) {
    ConstRowSpan src = x->value.RowSpan(indices[i]);
    std::copy(src.begin(), src.end(), value.row_data(i));
  }
  return MakeOpNode(std::move(value), {x}, [indices = std::move(indices), cols](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    for (size_t i = 0; i < indices.size(); ++i) {
      const double* grow = n->grad.row_data(i);
      double* prow = p->grad.row_data(indices[i]);
      for (size_t c = 0; c < cols; ++c) prow[c] += grow[c];
    }
  });
}

Var LegacySoftmaxCol(const Var& x) {
  Matrix value = x->value;
  double max_v = value.At(0, 0);
  for (size_t r = 1; r < value.rows(); ++r) max_v = std::max(max_v, value.At(r, 0));
  double sum = 0.0;
  for (size_t r = 0; r < value.rows(); ++r) {
    value.At(r, 0) = std::exp(value.At(r, 0) - max_v);
    sum += value.At(r, 0);
  }
  for (size_t r = 0; r < value.rows(); ++r) value.At(r, 0) /= sum;
  return MakeOpNode(std::move(value), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    double dot = 0.0;
    for (size_t r = 0; r < n->value.rows(); ++r) {
      dot += n->grad.At(r, 0) * n->value.At(r, 0);
    }
    for (size_t r = 0; r < n->value.rows(); ++r) {
      p->grad.At(r, 0) += n->value.At(r, 0) * (n->grad.At(r, 0) - dot);
    }
  });
}

Var LegacyTransposedMatMul(const Var& a, const Var& b) {
  return MakeOpNode(MatMulTransposeA(a->value, b->value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) pa->grad.AddInPlace(MatMulTransposeB(pb->value, n->grad));
    if (pb->requires_grad) pb->grad.AddInPlace(MatMul(pa->value, n->grad));
  });
}

Var LegacyPool(const Var& h, const std::vector<std::vector<size_t>>& ids, const Var& q,
               const Var& b) {
  std::vector<Var> rows;
  for (const std::vector<size_t>& row_ids : ids) {
    Var hk = LegacyGatherRows(h, row_ids);
    if (q != nullptr) {
      Var scores = Relu(AddRowBroadcast(MatMul(hk, q), b));
      rows.push_back(LegacyTransposedMatMul(LegacySoftmaxCol(scores), hk));
    } else {
      rows.push_back(MatMul(Constant(Matrix::Constant(1, row_ids.size(), 1.0)), hk));
    }
  }
  return ConcatRows(rows);
}

void ExpectBitwiseEqual(const Matrix& expected, const Matrix& actual, const char* what) {
  ASSERT_EQ(expected.rows(), actual.rows()) << what;
  ASSERT_EQ(expected.cols(), actual.cols()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(), expected.size() * sizeof(double)), 0)
      << what << ": expected " << expected.ToString() << " got " << actual.ToString();
}

struct PoolCase {
  std::vector<std::vector<size_t>> ids;
  bool attend = true;
  bool trainable_h = true;
  double bias = 0.1;
};

/// Runs one pooling step through the fused node and through the legacy
/// composition on equal leaves, then compares the forward value and the h,
/// q and b gradients bit for bit. The loss weights every pooled element by
/// a different constant so each one carries its own gradient.
void ExpectMatchesLegacy(const PoolCase& pool_case) {
  Rng rng(29);
  const size_t entities = 8;
  const size_t cols = 5;
  Matrix h_value = GaussianInit(entities, cols, 0.7, &rng);
  Matrix q_value = GaussianInit(cols, 1, 0.7, &rng);
  Matrix probe = GaussianInit(pool_case.ids.size(), cols, 1.0, &rng);
  struct Outcome {
    Matrix value, h_grad, q_grad, b_grad;
  };
  auto run = [&](bool fused) {
    Var h = pool_case.trainable_h ? Param(h_value) : Constant(h_value);
    Var q = pool_case.attend ? Param(q_value) : nullptr;
    Var b = pool_case.attend ? Param(Matrix(1, 1, pool_case.bias)) : nullptr;
    Var pooled = fused ? AttentionPool(h, Spans(pool_case.ids), q, b)
                       : LegacyPool(h, pool_case.ids, q, b);
    Backward(SumAll(Mul(pooled, Constant(probe))));
    Outcome out{pooled->value, h->grad, {}, {}};
    if (q != nullptr) {
      out.q_grad = q->grad;
      out.b_grad = b->grad;
    }
    return out;
  };
  Outcome legacy = run(false);
  Outcome fused = run(true);
  ExpectBitwiseEqual(legacy.value, fused.value, "value");
  if (pool_case.trainable_h) ExpectBitwiseEqual(legacy.h_grad, fused.h_grad, "h grad");
  if (pool_case.attend) {
    ExpectBitwiseEqual(legacy.q_grad, fused.q_grad, "q grad");
    ExpectBitwiseEqual(legacy.b_grad, fused.b_grad, "b grad");
  }
}

TEST(AttentionPoolTest, MatchesLegacyWithRepeatedEntity) {
  // GraphIds does not deduplicate: a tweet can name one entity twice.
  ExpectMatchesLegacy({.ids = {{2, 2, 5}, {0, 3, 3, 3}}});
}

TEST(AttentionPoolTest, MatchesLegacyWithSingleEntityRows) {
  ExpectMatchesLegacy({.ids = {{4}, {1}, {6, 7}}});
}

TEST(AttentionPoolTest, MatchesLegacyWhenReluZeroesEveryScore) {
  ExpectMatchesLegacy({.ids = {{0, 1, 2}, {3, 5}}, .bias = -50.0});
}

TEST(AttentionPoolTest, MatchesLegacyWithEntitySharedAcrossRows) {
  // Rows write the shared h row's gradient in the legacy tape's order.
  ExpectMatchesLegacy({.ids = {{1, 4}, {4, 6}, {0, 4, 7}, {4}}});
}

TEST(AttentionPoolTest, MatchesLegacyInSumMode) {
  ExpectMatchesLegacy({.ids = {{1, 4, 4}, {4, 6}, {2}}, .attend = false});
}

TEST(AttentionPoolTest, MatchesLegacyWithConstantEmbeddings) {
  ExpectMatchesLegacy({.ids = {{1, 4}, {4, 6, 6}, {3}}, .trainable_h = false});
}

}  // namespace
}  // namespace edge::nn
