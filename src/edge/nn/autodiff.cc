#include "edge/nn/autodiff.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "edge/nn/tape_arena.h"
#include "edge/obs/trace.h"

namespace edge::nn {

namespace {

/// All tape nodes come from the thread-local arena: allocate_shared fuses the
/// control block and the Node into one block that the arena recycles across
/// training steps.
Var NewNode(Matrix value, bool requires_grad) {
  return std::allocate_shared<Node>(ArenaAllocator<Node>(), std::move(value),
                                    requires_grad);
}

}  // namespace

Var Param(Matrix value) { return NewNode(std::move(value), true); }

Var Constant(Matrix value) { return NewNode(std::move(value), false); }

Var MakeOpNode(Matrix value, std::vector<Var> parents,
               std::function<void(Node*)> backward_fn) {
  bool requires_grad = false;
  for (const Var& p : parents) {
    EDGE_CHECK(p != nullptr);
    requires_grad = requires_grad || p->requires_grad;
  }
  Var node = NewNode(std::move(value), requires_grad);
  node->parents = std::move(parents);
  if (requires_grad) node->backward_fn = std::move(backward_fn);
  return node;
}

Var Add(const Var& a, const Var& b) {
  Matrix value = a->value.Add(b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    for (int i = 0; i < 2; ++i) {
      Node* p = n->parents[i].get();
      if (p->requires_grad) p->grad.AddInPlace(n->grad);
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  Matrix value = a->value.Sub(b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) pa->grad.AddInPlace(n->grad);
    if (pb->requires_grad) pb->grad.Axpy(-1.0, n->grad);
  });
}

Var Scale(const Var& a, double s) {
  return MakeOpNode(a->value.Scaled(s), {a}, [s](Node* n) {
    Node* p = n->parents[0].get();
    if (p->requires_grad) p->grad.Axpy(s, n->grad);
  });
}

Var Mul(const Var& a, const Var& b) {
  Matrix value = a->value.Hadamard(b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) pa->grad.AddInPlace(n->grad.Hadamard(pb->value));
    if (pb->requires_grad) pb->grad.AddInPlace(n->grad.Hadamard(pa->value));
  });
}

Var MatMul(const Var& a, const Var& b) {
  Matrix value = MatMul(a->value, b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    // dA = dZ * B^T ; dB = A^T * dZ.
    if (pa->requires_grad) pa->grad.AddInPlace(MatMulTransposeB(n->grad, pb->value));
    if (pb->requires_grad) pb->grad.AddInPlace(MatMulTransposeA(pa->value, n->grad));
  });
}

Var AddRowBroadcast(const Var& x, const Var& bias) {
  EDGE_CHECK_EQ(bias->value.rows(), 1u);
  EDGE_CHECK_EQ(bias->value.cols(), x->value.cols());
  Matrix value = x->value;
  {
    const size_t cols = value.cols();
    const double* EDGE_RESTRICT brow = bias->value.data();
    for (size_t r = 0; r < value.rows(); ++r) {
      double* EDGE_RESTRICT row = value.row_data(r);
      for (size_t c = 0; c < cols; ++c) row[c] += brow[c];
    }
  }
  return MakeOpNode(std::move(value), {x, bias}, [](Node* n) {
    Node* px = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (px->requires_grad) px->grad.AddInPlace(n->grad);
    if (pb->requires_grad) {
      const size_t cols = n->grad.cols();
      double* EDGE_RESTRICT acc = pb->grad.row_data(0);
      for (size_t r = 0; r < n->grad.rows(); ++r) {
        const double* EDGE_RESTRICT grow = n->grad.row_data(r);
        for (size_t c = 0; c < cols; ++c) acc[c] += grow[c];
      }
    }
  });
}

Var Relu(const Var& x) {
  Matrix value = x->value;
  {
    double* EDGE_RESTRICT v = value.data();
    const size_t n = value.size();
    for (size_t i = 0; i < n; ++i) {
      if (v[i] < 0.0) v[i] = 0.0;
    }
  }
  return MakeOpNode(std::move(value), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    const double* EDGE_RESTRICT v = p->value.data();
    const double* EDGE_RESTRICT g = n->grad.data();
    double* EDGE_RESTRICT pg = p->grad.data();
    const size_t count = n->grad.size();
    for (size_t i = 0; i < count; ++i) {
      if (v[i] > 0.0) pg[i] += g[i];
    }
  });
}

Var SpMm(const CsrMatrix* sparse, const Var& x) {
  EDGE_CHECK(sparse != nullptr);
  Matrix value = sparse->Multiply(x->value);
  return MakeOpNode(std::move(value), {x}, [sparse](Node* n) {
    Node* p = n->parents[0].get();
    // dX = S^T * dZ.
    if (p->requires_grad) p->grad.AddInPlace(sparse->MultiplyTranspose(n->grad));
  });
}

Var Transpose(const Var& x) {
  return MakeOpNode(x->value.Transposed(), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (p->requires_grad) p->grad.AddInPlace(n->grad.Transposed());
  });
}

Var AttentionPool(const Var& h, std::vector<std::span<const size_t>> ids_per_row,
                  const Var& q, const Var& b) {
  EDGE_CHECK(h != nullptr);
  EDGE_CHECK((q == nullptr) == (b == nullptr)) << "AttentionPool: q and b come together";
  EDGE_CHECK(!ids_per_row.empty());
  const size_t cols = h->value.cols();
  size_t total = 0;
  for (std::span<const size_t> ids : ids_per_row) {
    EDGE_CHECK(!ids.empty());
    for (size_t id : ids) EDGE_CHECK_LT(id, h->value.rows());
    total += ids.size();
  }
  Matrix value(ids_per_row.size(), cols);

  if (q == nullptr) {
    for (size_t i = 0; i < ids_per_row.size(); ++i) {
      double* EDGE_RESTRICT out = value.row_data(i);
      for (size_t id : ids_per_row[i]) {
        const double* EDGE_RESTRICT hk = h->value.row_data(id);
        for (size_t c = 0; c < cols; ++c) out[c] += hk[c];
      }
    }
    return MakeOpNode(std::move(value), {h},
                      [ids_per_row = std::move(ids_per_row), cols](Node* n) {
                        Node* ph = n->parents[0].get();
                        for (size_t i = ids_per_row.size(); i-- > 0;) {
                          const double* EDGE_RESTRICT g = n->grad.row_data(i);
                          for (size_t id : ids_per_row[i]) {
                            double* EDGE_RESTRICT hg = ph->grad.row_data(id);
                            // "0.0 +" replays accumulation into a freshly
                            // zeroed gradient (-0.0 becomes +0.0).
                            for (size_t c = 0; c < cols; ++c) hg[c] += 0.0 + g[c];
                          }
                        }
                      });
  }

  EDGE_CHECK(q->value.rows() == cols && q->value.cols() == 1);
  EDGE_CHECK(b->value.rows() == 1 && b->value.cols() == 1);
  // Per (row, k): the biased score before ReLU, whose sign routes the
  // backward pass, and the softmax weight.
  Matrix scores(total, 1);
  Matrix weights(total, 1);
  const double* qv = q->value.data();
  const double bias = b->value.At(0, 0);
  size_t offset = 0;
  for (size_t i = 0; i < ids_per_row.size(); ++i) {
    std::span<const size_t> ids = ids_per_row[i];
    const size_t k_count = ids.size();
    double* a = scores.data() + offset;
    double* w = weights.data() + offset;
    offset += k_count;
    for (size_t k = 0; k < k_count; ++k) {
      const double* hk = h->value.row_data(ids[k]);
      double dot = 0.0;
      for (size_t c = 0; c < cols; ++c) dot += hk[c] * qv[c];
      a[k] = dot + bias;
      w[k] = a[k] < 0.0 ? 0.0 : a[k];
    }
    double max_v = w[0];
    for (size_t k = 1; k < k_count; ++k) max_v = std::max(max_v, w[k]);
    double sum = 0.0;
    for (size_t k = 0; k < k_count; ++k) {
      w[k] = std::exp(w[k] - max_v);
      sum += w[k];
    }
    for (size_t k = 0; k < k_count; ++k) w[k] /= sum;
    double* EDGE_RESTRICT out = value.row_data(i);
    for (size_t k = 0; k < k_count; ++k) {
      const double* EDGE_RESTRICT hk = h->value.row_data(ids[k]);
      const double wk = w[k];
      for (size_t c = 0; c < cols; ++c) out[c] += wk * hk[c];
    }
  }

  return MakeOpNode(
      std::move(value), {h, q, b},
      [ids_per_row = std::move(ids_per_row), scores = std::move(scores),
       weights = std::move(weights), cols](Node* n) {
        Node* ph = n->parents[0].get();
        Node* pq = n->parents[1].get();
        Node* pb = n->parents[2].get();
        // Row 0: the pooled row's gradient. Row 1: its q-gradient partial sum.
        Matrix scratch(2, cols);
        double* EDGE_RESTRICT dz = scratch.row_data(0);
        double* EDGE_RESTRICT dq = scratch.row_data(1);
        Matrix score_grad(scores.rows(), 1);
        size_t offset = scores.rows();
        for (size_t i = ids_per_row.size(); i-- > 0;) {
          std::span<const size_t> ids = ids_per_row[i];
          const size_t k_count = ids.size();
          offset -= k_count;
          const double* a = scores.data() + offset;
          const double* w = weights.data() + offset;
          double* ds = score_grad.data() + offset;
          // "0.0 +" replays accumulation into a freshly zeroed gradient,
          // which turns -0.0 into +0.0 exactly as the per-row tape did.
          const double* EDGE_RESTRICT g = n->grad.row_data(i);
          for (size_t c = 0; c < cols; ++c) dz[c] = 0.0 + g[c];
          // Weighted-sum backward into the weights, then softmax, ReLU and
          // bias backward: ds ends as the gradient of the biased score.
          for (size_t k = 0; k < k_count; ++k) {
            const double* hk = ph->value.row_data(ids[k]);
            double gw = 0.0;
            for (size_t c = 0; c < cols; ++c) gw += hk[c] * dz[c];
            ds[k] = gw;
          }
          double dot = 0.0;
          for (size_t k = 0; k < k_count; ++k) dot += ds[k] * w[k];
          for (size_t k = 0; k < k_count; ++k) {
            double relu_grad = 0.0 + w[k] * (ds[k] - dot);
            ds[k] = a[k] > 0.0 ? 0.0 + relu_grad : 0.0;
          }
          if (pb->requires_grad) {
            double* acc = pb->grad.data();
            for (size_t k = 0; k < k_count; ++k) acc[0] += ds[k];
          }
          const double* EDGE_RESTRICT qv = pq->value.data();
          if (ph->requires_grad) {
            for (size_t k = 0; k < k_count; ++k) {
              double* EDGE_RESTRICT hg = ph->grad.row_data(ids[k]);
              const double wk = w[k];
              const double dsk = ds[k];
              for (size_t c = 0; c < cols; ++c) {
                hg[c] += (0.0 + wk * dz[c]) + (0.0 + dsk * qv[c]);
              }
            }
          }
          if (pq->requires_grad) {
            std::fill(dq, dq + cols, 0.0);
            for (size_t k = 0; k < k_count; ++k) {
              const double* EDGE_RESTRICT hk = ph->value.row_data(ids[k]);
              const double dsk = ds[k];
              for (size_t c = 0; c < cols; ++c) dq[c] += hk[c] * dsk;
            }
            double* EDGE_RESTRICT qg = pq->grad.data();
            for (size_t c = 0; c < cols; ++c) qg[c] += dq[c];
          }
        }
      });
}

Var ConcatRows(const std::vector<Var>& rows) {
  EDGE_CHECK(!rows.empty());
  size_t cols = rows[0]->value.cols();
  Matrix value(rows.size(), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    EDGE_CHECK_EQ(rows[i]->value.rows(), 1u);
    EDGE_CHECK_EQ(rows[i]->value.cols(), cols);
    ConstRowSpan src = rows[i]->value.RowSpan(0);
    std::copy(src.begin(), src.end(), value.row_data(i));
  }
  return MakeOpNode(std::move(value), rows, [](Node* n) {
    const size_t cols = n->grad.cols();
    for (size_t i = 0; i < n->parents.size(); ++i) {
      Node* p = n->parents[i].get();
      if (!p->requires_grad) continue;
      const double* EDGE_RESTRICT grow = n->grad.row_data(i);
      double* EDGE_RESTRICT prow = p->grad.row_data(0);
      for (size_t c = 0; c < cols; ++c) prow[c] += grow[c];
    }
  });
}

Var SumAll(const Var& x) {
  Matrix value(1, 1);
  value.At(0, 0) = x->value.Sum();
  return MakeOpNode(std::move(value), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    const double g = n->grad.At(0, 0);
    double* EDGE_RESTRICT pg = p->grad.data();
    const size_t count = p->grad.size();
    for (size_t i = 0; i < count; ++i) pg[i] += g;
  });
}

Var MeanAll(const Var& x) {
  EDGE_CHECK_GT(x->value.size(), 0u);
  return Scale(SumAll(x), 1.0 / static_cast<double>(x->value.size()));
}

std::vector<Node*> TopologicalOrder(const Var& root) {
  EDGE_CHECK(root != nullptr);
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  // Iterative post-order DFS (graphs can be deep for stacked layers).
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      Node* parent = top.node->parents[top.next_parent].get();
      ++top.next_parent;
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  return order;  // Parents precede children.
}

void Backward(const Var& root) {
  EDGE_TRACE_SPAN("edge.nn.backward");
  EDGE_CHECK_EQ(root->value.rows(), 1u);
  EDGE_CHECK_EQ(root->value.cols(), 1u);
  std::vector<Node*> order = TopologicalOrder(root);
  // Gradient storage only where gradients flow: closures never touch the
  // grad of a requires_grad == false node. ResetZero recycles each node's
  // existing buffer (params keep theirs across steps; fresh op nodes draw
  // from the arena), so this loop allocates nothing at steady state.
  for (Node* n : order) {
    if (n->requires_grad) n->grad.ResetZero(n->value.rows(), n->value.cols());
  }
  root->grad.ResetZero(1, 1);
  root->grad.At(0, 0) = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->requires_grad && n->backward_fn) n->backward_fn(n);
  }
}

}  // namespace edge::nn
