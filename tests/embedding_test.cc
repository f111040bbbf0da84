#include "edge/embedding/entity2vec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "edge/common/math_util.h"
#include "edge/common/rng.h"

namespace edge::embedding {
namespace {

/// Corpus with two disjoint "topic clusters": tokens within a cluster
/// co-occur, tokens across clusters never do.
std::vector<std::vector<std::string>> ClusteredCorpus(int repeats) {
  std::vector<std::vector<std::string>> corpus;
  Rng rng(5);
  std::vector<std::string> cluster_a = {"majestic_theatre", "broadway", "@phantomopera",
                                        "show", "musical"};
  std::vector<std::string> cluster_b = {"presbyterian_hospital", "covid", "masks",
                                        "nurse", "ward"};
  for (int r = 0; r < repeats; ++r) {
    for (const auto& cluster : {cluster_a, cluster_b}) {
      std::vector<std::string> sentence;
      for (int k = 0; k < 6; ++k) {
        sentence.push_back(cluster[rng.UniformInt(cluster.size())]);
      }
      corpus.push_back(sentence);
    }
  }
  return corpus;
}

TEST(Entity2VecTest, VocabularyAndShapes) {
  Entity2VecOptions options;
  options.dim = 16;
  options.epochs = 1;
  Entity2Vec model(options);
  model.Train(ClusteredCorpus(10));
  EXPECT_EQ(model.vocab().size(), 10u);
  EXPECT_EQ(model.embeddings().rows(), 10u);
  EXPECT_EQ(model.embeddings().cols(), 16u);
  EXPECT_EQ(model.EmbeddingOf("broadway").size(), 16u);
  EXPECT_TRUE(model.EmbeddingOf("unseen_token").empty());
}

TEST(Entity2VecTest, CooccurringTokensAreCloser) {
  Entity2VecOptions options;
  options.dim = 24;
  options.epochs = 8;
  options.subsample_threshold = 0.0;  // Tiny corpus: keep everything.
  Entity2Vec model(options);
  model.Train(ClusteredCorpus(120));
  double same_cluster = model.CosineSimilarity("majestic_theatre", "@phantomopera");
  double cross_cluster = model.CosineSimilarity("majestic_theatre", "covid");
  EXPECT_GT(same_cluster, cross_cluster + 0.2);
}

TEST(Entity2VecTest, MostSimilarRanksOwnCluster) {
  Entity2VecOptions options;
  options.dim = 24;
  options.epochs = 8;
  options.subsample_threshold = 0.0;
  Entity2Vec model(options);
  model.Train(ClusteredCorpus(120));
  auto similar = model.MostSimilar("covid", 3);
  ASSERT_EQ(similar.size(), 3u);
  // All three nearest neighbours of "covid" come from the hospital cluster.
  for (const auto& [token, score] : similar) {
    EXPECT_TRUE(token == "presbyterian_hospital" || token == "masks" ||
                token == "nurse" || token == "ward")
        << token;
  }
}

TEST(Entity2VecTest, DeterministicAcrossRuns) {
  Entity2VecOptions options;
  options.dim = 8;
  options.epochs = 2;
  Entity2Vec a(options);
  Entity2Vec b(options);
  a.Train(ClusteredCorpus(20));
  b.Train(ClusteredCorpus(20));
  EXPECT_TRUE(nn::AllClose(a.embeddings(), b.embeddings(), 0.0));
}

TEST(Entity2VecTest, MinCountFiltersRareTokens) {
  Entity2VecOptions options;
  options.dim = 8;
  options.min_count = 3;
  Entity2Vec model(options);
  std::vector<std::vector<std::string>> corpus = {
      {"common", "common", "common", "rare"},
      {"common", "other", "other", "other"},
  };
  model.Train(corpus);
  EXPECT_NE(model.vocab().Lookup("common"), text::Vocabulary::kNotFound);
  EXPECT_NE(model.vocab().Lookup("other"), text::Vocabulary::kNotFound);
  EXPECT_EQ(model.vocab().Lookup("rare"), text::Vocabulary::kNotFound);
}

TEST(Entity2VecTest, EmptyCorpusIsSafe) {
  Entity2Vec model;
  model.Train({});
  EXPECT_EQ(model.vocab().size(), 0u);
}

/// Every target the exactness argument cares about: 0, each cumulative
/// value, its neighbours one ulp either side, the total, and random draws
/// scaled exactly as SampleNegative scales them.
void ExpectGuideTableMatchesLowerBound(const std::vector<double>& cdf) {
  CdfGuideTable table(cdf);
  auto lower_bound_index = [&](double t) {
    return static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), t) - cdf.begin());
  };
  std::vector<double> targets = {0.0, cdf.back()};
  for (double c : cdf) {
    targets.push_back(c);
    targets.push_back(std::nextafter(c, 0.0));
    targets.push_back(std::nextafter(c, std::numeric_limits<double>::infinity()));
  }
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) targets.push_back(rng.Uniform() * table.total());
  for (double t : targets) {
    EXPECT_EQ(table.Find(t), lower_bound_index(t)) << "target " << t;
  }
}

TEST(CdfGuideTableTest, FindIsLowerBoundOnUnigramCdf) {
  // A Zipf-like count table raised to 0.75, as entity2vec builds it: one
  // heavy head and a long tail of light entries sharing buckets.
  std::vector<double> cdf;
  double cumulative = 0.0;
  for (int i = 1; i <= 500; ++i) {
    cumulative += std::pow(static_cast<double>(5000 / i), 0.75);
    cdf.push_back(cumulative);
  }
  ExpectGuideTableMatchesLowerBound(cdf);
}

TEST(CdfGuideTableTest, FindIsLowerBoundOnSmallAndTiedCdfs) {
  ExpectGuideTableMatchesLowerBound({1.0});
  ExpectGuideTableMatchesLowerBound({1.0, 2.0, 3.0});
  // Zero-weight entries repeat a cumulative value; lower_bound answers the
  // first of the run.
  ExpectGuideTableMatchesLowerBound({0.5, 0.5, 0.5, 4.0, 4.0, 4.25, 100.0});
}

/// Test-local copy of the trainer as it was before the pair kernel: the
/// same vocabulary, initialisation and Rng stream, negatives found by
/// std::lower_bound, and each target's dot, sigmoid and update run in turn
/// as it is drawn.
nn::Matrix TrainWithPerTargetLoop(const std::vector<std::vector<std::string>>& corpus,
                                  const Entity2VecOptions& options,
                                  const text::Vocabulary& vocab) {
  const size_t dim = options.dim;
  Rng rng(options.seed);
  double init_scale = 0.5 / static_cast<double>(dim);
  nn::Matrix input(vocab.size(), dim);
  nn::Matrix output(vocab.size(), dim);
  for (size_t r = 0; r < vocab.size(); ++r) {
    for (size_t c = 0; c < dim; ++c) input.At(r, c) = rng.Uniform(-init_scale, init_scale);
  }
  std::vector<double> cdf(vocab.size());
  double cumulative = 0.0;
  for (size_t i = 0; i < vocab.size(); ++i) {
    cumulative += std::pow(static_cast<double>(vocab.CountOf(i)), 0.75);
    cdf[i] = cumulative;
  }
  std::vector<std::vector<size_t>> id_corpus;
  int64_t total_tokens = 0;
  for (const auto& sentence : corpus) {
    std::vector<size_t> ids;
    for (const auto& token : sentence) {
      size_t id = vocab.Lookup(token);
      if (id != text::Vocabulary::kNotFound) ids.push_back(id);
    }
    total_tokens += static_cast<int64_t>(ids.size());
    id_corpus.push_back(std::move(ids));
  }

  std::vector<double> grad(dim);
  auto train_pair = [&](size_t center, size_t context, double lr) {
    double* u = input.row_data(center);
    std::fill(grad.begin(), grad.end(), 0.0);
    auto update = [&](size_t target, double label) {
      double* v = output.row_data(target);
      double z = 0.0;
      for (size_t d = 0; d < dim; ++d) z += u[d] * v[d];
      double g = (Sigmoid(z) - label) * lr;
      for (size_t d = 0; d < dim; ++d) {
        grad[d] += g * v[d];
        v[d] -= g * u[d];
      }
    };
    update(context, 1.0);
    for (size_t n = 0; n < options.negatives; ++n) {
      double target = rng.Uniform() * cdf.back();
      size_t neg = static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), target) -
                                        cdf.begin());
      if (neg == context) continue;
      update(neg, 0.0);
    }
    for (size_t d = 0; d < dim; ++d) u[d] -= grad[d];
  };

  int64_t planned = total_tokens * options.epochs;
  int64_t processed = 0;
  std::vector<size_t> kept;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    for (const std::vector<size_t>& ids : id_corpus) {
      kept.clear();
      for (size_t id : ids) {
        processed += 1;
        if (options.subsample_threshold > 0.0) {
          double freq = static_cast<double>(vocab.CountOf(id)) /
                        static_cast<double>(vocab.total_count());
          double keep_p = std::sqrt(options.subsample_threshold / freq) +
                          options.subsample_threshold / freq;
          if (keep_p < 1.0 && rng.Uniform() >= keep_p) continue;
        }
        kept.push_back(id);
      }
      double progress = static_cast<double>(processed) / static_cast<double>(planned);
      double lr = std::max(options.min_learning_rate,
                           options.learning_rate * (1.0 - progress));
      for (size_t pos = 0; pos < kept.size(); ++pos) {
        size_t span = 1 + rng.UniformInt(options.window);
        size_t lo = pos >= span ? pos - span : 0;
        size_t hi = std::min(kept.size(), pos + span + 1);
        for (size_t ctx = lo; ctx < hi; ++ctx) {
          if (ctx != pos) train_pair(kept[pos], kept[ctx], lr);
        }
      }
    }
  }
  return input;
}

TEST(Entity2VecTest, PairKernelMatchesPerTargetLoopWhenTargetsRepeat) {
  // Three tokens and five negatives: nearly every pair draws some negative
  // twice, so the kernel's recompute-on-repeat path runs constantly.
  std::vector<std::vector<std::string>> corpus;
  Rng rng(17);
  const std::vector<std::string> tokens = {"a", "b", "c"};
  for (int s = 0; s < 40; ++s) {
    std::vector<std::string> sentence;
    for (int k = 0; k < 7; ++k) sentence.push_back(tokens[rng.UniformInt(s % 2 ? 3 : 2)]);
    corpus.push_back(sentence);
  }
  Entity2VecOptions options;
  options.dim = 12;
  options.negatives = 5;
  options.epochs = 4;
  options.subsample_threshold = 0.0;
  Entity2Vec model(options);
  model.Train(corpus);
  ASSERT_EQ(model.vocab().size(), 3u);
  nn::Matrix expected = TrainWithPerTargetLoop(corpus, options, model.vocab());
  const nn::Matrix& actual = model.embeddings();
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(), actual.size() * sizeof(double)), 0)
      << "expected " << expected.ToString() << "\ngot " << actual.ToString();
}

}  // namespace
}  // namespace edge::embedding
