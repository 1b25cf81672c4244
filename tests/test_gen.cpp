// Tests for the synthetic tensor generators and the dataset catalog.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>

#include "common/error.hpp"
#include "gen/datasets.hpp"
#include "gen/kronecker.hpp"
#include "gen/powerlaw.hpp"

namespace pasta {
namespace {

TEST(Kronecker, ProducesRequestedNnzWithinDims)
{
    KroneckerConfig config;
    config.dims = {100, 80, 60};
    config.nnz = 2000;
    config.seed = 1;
    CooTensor t = generate_kronecker(config);
    EXPECT_EQ(t.nnz(), 2000u);
    EXPECT_EQ(t.dims(), config.dims);
    t.validate();
    EXPECT_TRUE(t.is_sorted_lexicographic());
}

TEST(Kronecker, DeterministicPerSeed)
{
    KroneckerConfig config;
    config.dims = {64, 64, 64};
    config.nnz = 500;
    config.seed = 7;
    CooTensor a = generate_kronecker(config);
    CooTensor b = generate_kronecker(config);
    EXPECT_TRUE(a.same_pattern(b));
    EXPECT_EQ(a.values(), b.values());
    config.seed = 8;
    CooTensor c = generate_kronecker(config);
    EXPECT_FALSE(a.same_pattern(c));
}

TEST(Kronecker, DefaultInitiatorIsNormalizedAndSkewed)
{
    const auto init = default_kronecker_initiator(3, 2);
    ASSERT_EQ(init.size(), 8u);
    double total = 0;
    for (double p : init)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Cell (0,0,0) must be the hottest (fractal skew).
    for (Size c = 1; c < 8; ++c)
        EXPECT_GT(init[0], init[c]);
}

TEST(Kronecker, SkewConcentratesMassNearOrigin)
{
    KroneckerConfig config;
    config.dims = {1024, 1024};
    config.nnz = 4000;
    config.seed = 3;
    CooTensor t = generate_kronecker(config);
    // With the biased initiator, far more non-zeros land in the low half
    // of each mode than the high half.
    Size low = 0;
    for (Size p = 0; p < t.nnz(); ++p)
        low += (t.index(0, p) < 512);
    EXPECT_GT(low, t.nnz() * 6 / 10);
}

TEST(Kronecker, SupportsNonPowerDimsViaStripOff)
{
    KroneckerConfig config;
    config.dims = {100, 37, 53};  // none a power of 2
    config.nnz = 300;
    config.seed = 5;
    CooTensor t = generate_kronecker(config);
    EXPECT_EQ(t.nnz(), 300u);
    t.validate();  // all coordinates inside the requested dims
}

TEST(Kronecker, CustomInitiatorValidated)
{
    KroneckerConfig config;
    config.dims = {16, 16};
    config.nnz = 10;
    config.initiator = {0.5, 0.5};  // wrong size: needs 4
    EXPECT_THROW(generate_kronecker(config), PastaError);
}

TEST(Kronecker, RejectsOverDenseRequest)
{
    KroneckerConfig config;
    config.dims = {4, 4};
    config.nnz = 12;  // > half of 16
    EXPECT_THROW(generate_kronecker(config), PastaError);
}

TEST(PowerLaw, ProducesRequestedShape)
{
    PowerLawConfig config;
    config.dims = {5000, 5000, 64};
    config.nnz = 3000;
    config.uniform_mode = {false, false, true};
    config.seed = 1;
    CooTensor t = generate_powerlaw(config);
    EXPECT_EQ(t.nnz(), 3000u);
    EXPECT_EQ(t.dims(), config.dims);
    t.validate();
}

TEST(PowerLaw, DeterministicPerSeed)
{
    PowerLawConfig config;
    config.dims = {1000, 1000};
    config.nnz = 500;
    config.seed = 9;
    CooTensor a = generate_powerlaw(config);
    CooTensor b = generate_powerlaw(config);
    EXPECT_TRUE(a.same_pattern(b));
}

TEST(PowerLaw, IndexDistributionIsHeavyHeaded)
{
    // Power-law sampling: index 0 must dominate; the top decile of the
    // range must hold a tiny fraction of samples.
    Rng rng(2);
    const Index dim = 10000;
    std::map<Index, int> counts;
    const int samples = 20000;
    Size top_decile = 0;
    for (int i = 0; i < samples; ++i) {
        const Index idx = sample_powerlaw_index(rng, dim, 1.8);
        ASSERT_LT(idx, dim);
        ++counts[idx];
        top_decile += (idx >= dim / 10 * 9);
    }
    EXPECT_GT(counts[0], samples / 10);          // hot head
    EXPECT_LT(top_decile, samples / 100);        // cold tail
}

TEST(PowerLaw, AlphaControlsSkew)
{
    Rng rng1(3);
    Rng rng2(3);
    const Index dim = 10000;
    int head_weak = 0;
    int head_strong = 0;
    for (int i = 0; i < 10000; ++i) {
        head_weak += (sample_powerlaw_index(rng1, dim, 1.3) < 10);
        head_strong += (sample_powerlaw_index(rng2, dim, 2.5) < 10);
    }
    EXPECT_GT(head_strong, head_weak);
}

TEST(PowerLaw, UniformModesCoverTheirRange)
{
    PowerLawConfig config;
    config.dims = {2000, 2000, 16};
    config.nnz = 4000;
    config.uniform_mode = {false, false, true};
    config.seed = 4;
    CooTensor t = generate_powerlaw(config);
    std::vector<int> counts(16, 0);
    for (Size p = 0; p < t.nnz(); ++p)
        ++counts[t.index(2, p)];
    for (int c : counts)
        EXPECT_GT(c, 0) << "uniform mode left a slice empty";
}

TEST(PowerLaw, RejectsBadAlpha)
{
    PowerLawConfig config;
    config.dims = {100, 100};
    config.nnz = 10;
    config.alpha = 1.0;
    EXPECT_THROW(generate_powerlaw(config), PastaError);
}

/// FNV-1a over every non-zero's indices and value bits.
std::uint64_t
tensor_hash(const CooTensor& t)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&](std::uint32_t word) {
        for (int b = 0; b < 4; ++b)
            h = (h ^ ((word >> (8 * b)) & 0xffu)) * 1099511628211ULL;
    };
    for (Size p = 0; p < t.nnz(); ++p) {
        for (Size m = 0; m < t.order(); ++m)
            mix(t.index(m, p));
        mix(std::bit_cast<std::uint32_t>(t.value(p)));
    }
    return h;
}

TEST(PowerLaw, GoldenTensors)
{
    // Hashes of the generator's output before its sampler constants were
    // hoisted and its seen-set became open-addressed: the same draws must
    // be accepted, so every tensor keeps its bits.
    struct Case {
        std::vector<Index> dims;
        Size nnz;
        double alpha;
        std::vector<bool> uniform;
        std::uint64_t seed;
        std::uint64_t hash;
    };
    const Case cases[] = {
        // all power-law, 3rd order
        {{3000, 2000, 1000}, 6000, 1.8, {}, 3, 0x08e979f737bc807fULL},
        // a uniform short mode
        {{5000, 4000, 24},
         5000,
         2.2,
         {false, false, true},
         5,
         0x922cb732ff23b481ULL},
        // a mode of extent 1
        {{1, 2500, 700}, 4000, 1.5, {}, 7, 0x5333e9f5113c7ab1ULL},
        // 4th order, one uniform mode
        {{400, 300, 200, 16}, 6000, 1.6, {false, false, false, true}, 11,
         0xfdfba6f3e152283eULL},
    };
    for (const Case& c : cases) {
        PowerLawConfig config;
        config.dims = c.dims;
        config.nnz = c.nnz;
        config.alpha = c.alpha;
        config.uniform_mode = c.uniform;
        config.seed = c.seed;
        const CooTensor t = generate_powerlaw(config);
        ASSERT_EQ(t.nnz(), c.nnz);
        EXPECT_EQ(tensor_hash(t), c.hash)
            << std::hex << "seed " << c.seed << " got 0x" << tensor_hash(t);
    }
}

TEST(Datasets, TablesMatchThePaper)
{
    const auto& real = real_dataset_table();
    const auto& synth = synthetic_dataset_table();
    ASSERT_EQ(real.size(), 15u);
    ASSERT_EQ(synth.size(), 15u);
    // Spot-check a few published rows.
    EXPECT_EQ(real[0].name, "vast");
    EXPECT_EQ(real[0].paper_dims,
              (std::vector<Index>{165'000, 11'000, 2}));
    EXPECT_EQ(real[8].name, "nell1");
    EXPECT_EQ(real[8].order(), 3u);
    EXPECT_EQ(real[14].name, "deli4d");
    EXPECT_EQ(real[14].order(), 4u);
    EXPECT_EQ(synth[0].name, "regS");
    EXPECT_EQ(synth[0].gen, GenKind::kKronecker);
    EXPECT_EQ(synth[3].name, "irrS");
    EXPECT_EQ(synth[3].gen, GenKind::kPowerLaw);
    EXPECT_EQ(synth[14].name, "irr2L4d");
}

TEST(Datasets, ShortModesAreMarkedUniform)
{
    const DatasetSpec& vast = find_dataset("vast");
    EXPECT_FALSE(vast.uniform_mode[0]);
    EXPECT_TRUE(vast.uniform_mode[2]);  // extent 2
    const DatasetSpec& fbm = find_dataset("fb-m");
    EXPECT_TRUE(fbm.uniform_mode[2]);  // extent 166
}

TEST(Datasets, FindByIdAndNameAndUnknownThrows)
{
    EXPECT_EQ(find_dataset("r3").name, "choa");
    EXPECT_EQ(find_dataset("choa").id, "r3");
    EXPECT_EQ(find_dataset("s2").name, "regM");
    EXPECT_THROW(find_dataset("nope"), PastaError);
}

TEST(Datasets, ScaledShapePreservesOrderAndFits)
{
    for (const auto* table :
         {&real_dataset_table(), &synthetic_dataset_table()}) {
        for (const auto& spec : *table) {
            const ScaledShape shape = scaled_shape(spec, 1e-4);
            EXPECT_EQ(shape.dims.size(), spec.order()) << spec.id;
            double capacity = 1.0;
            for (Index d : shape.dims)
                capacity *= static_cast<double>(d);
            EXPECT_GE(capacity, 4.0 * static_cast<double>(shape.nnz))
                << spec.id;
            EXPECT_GE(shape.nnz, 1u);
        }
    }
}

TEST(Datasets, ScaledShapeKeepsModeSkew)
{
    // fb-m: two huge modes, one short mode; the stand-in must keep that.
    const ScaledShape shape = scaled_shape(find_dataset("fb-m"), 1e-4);
    EXPECT_GT(shape.dims[0], 100u * shape.dims[2]);
    EXPECT_EQ(shape.dims[0], shape.dims[1]);
}

TEST(Datasets, SynthesizeIsDeterministic)
{
    const DatasetSpec& spec = find_dataset("irrS");
    CooTensor a = synthesize_dataset(spec, 1e-3);
    CooTensor b = synthesize_dataset(spec, 1e-3);
    EXPECT_TRUE(a.same_pattern(b));
    EXPECT_GT(a.nnz(), 900u);
}

TEST(Datasets, StandardSuiteCoversAllThirty)
{
    const auto suite = standard_suite(2e-5);
    ASSERT_EQ(suite.size(), 30u);
    EXPECT_EQ(suite[0].id, "r1");
    EXPECT_EQ(suite[15].id, "s1");
    for (const auto& entry : suite) {
        EXPECT_GT(entry.tensor.nnz(), 0u) << entry.id;
        entry.tensor.validate();
    }
}

}  // namespace
}  // namespace pasta
