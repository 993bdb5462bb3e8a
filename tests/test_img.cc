/** @file Unit tests for the image module (Image, PPM, procedural). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "img/image.hh"
#include "img/procedural.hh"

using namespace texcache;

TEST(Image, DimensionsAndFill)
{
    Image img(4, 3, Rgba8{1, 2, 3, 4});
    EXPECT_EQ(img.width(), 4u);
    EXPECT_EQ(img.height(), 3u);
    EXPECT_FALSE(img.empty());
    EXPECT_EQ(img.at(3, 2), (Rgba8{1, 2, 3, 4}));
}

TEST(Image, AtIsRowMajor)
{
    Image img(3, 2);
    img.at(2, 0) = {10, 0, 0, 255};
    img.at(0, 1) = {20, 0, 0, 255};
    EXPECT_EQ(img.pixels()[2].r, 10);
    EXPECT_EQ(img.pixels()[3].r, 20);
}

TEST(Image, OutOfBoundsPanics)
{
    Image img(2, 2);
    EXPECT_DEATH(img.at(2, 0), "out of");
    EXPECT_DEATH(img.at(0, 2), "out of");
}

TEST(Image, PpmRoundTrip)
{
    Image img(2, 2);
    img.at(0, 0) = {255, 0, 0, 255};
    img.at(1, 0) = {0, 255, 0, 255};
    img.at(0, 1) = {0, 0, 255, 255};
    img.at(1, 1) = {9, 8, 7, 255};

    std::string path = ::testing::TempDir() + "/texcache_test.ppm";
    img.writePpm(path);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string magic, dims;
    std::getline(in, magic);
    EXPECT_EQ(magic, "P6");
    std::getline(in, dims);
    EXPECT_EQ(dims, "2 2");
    std::string maxval;
    std::getline(in, maxval);
    EXPECT_EQ(maxval, "255");
    char px[12];
    in.read(px, 12);
    EXPECT_EQ(static_cast<uint8_t>(px[0]), 255);
    EXPECT_EQ(static_cast<uint8_t>(px[1]), 0);
    EXPECT_EQ(static_cast<uint8_t>(px[9]), 9);
    std::remove(path.c_str());
}

TEST(Procedural, CheckerAlternates)
{
    Rgba8 a{255, 255, 255, 255}, b{0, 0, 0, 255};
    Image img = makeChecker(8, 4, a, b);
    // 4 cells of 2 pixels each; (0,0) is in cell (0,0) -> color b.
    EXPECT_EQ(img.at(0, 0), b);
    EXPECT_EQ(img.at(2, 0), a);
    EXPECT_EQ(img.at(0, 2), a);
    EXPECT_EQ(img.at(2, 2), b);
}

TEST(Procedural, NoiseIsDeterministicAndBounded)
{
    for (int i = 0; i < 100; ++i) {
        float x = i * 0.37f, y = i * 0.11f;
        float v1 = valueNoise(x, y, 4, 7);
        float v2 = valueNoise(x, y, 4, 7);
        EXPECT_EQ(v1, v2);
        EXPECT_GE(v1, 0.0f);
        EXPECT_LE(v1, 1.0f);
    }
}

TEST(Procedural, NoiseSeedMatters)
{
    int diff = 0;
    for (int i = 0; i < 50; ++i) {
        float x = i * 0.73f, y = i * 0.19f;
        diff += valueNoise(x, y, 3, 1) != valueNoise(x, y, 3, 2);
    }
    EXPECT_GT(diff, 40);
}

TEST(Procedural, NoiseEvaluatorCacheNeverChangesAValue)
{
    // A generator's evaluator keeps each octave's last lattice cell;
    // whatever path it walks, every sample must carry the same bits as
    // a fresh valueNoise at that point. Octave counts run past 8 so no
    // fixed octave limit can hide in the cache.
    auto bits = [](float v) {
        uint32_t b;
        std::memcpy(&b, &v, sizeof b);
        return b;
    };
    for (unsigned octaves = 1; octaves <= 10; ++octaves) {
        NoiseEvaluator noise(octaves, 99u);
        auto check = [&](float x, float y) {
            ASSERT_EQ(bits(noise(x, y)),
                      bits(valueNoise(x, y, octaves, 99u)))
                << octaves << " octaves at (" << x << ", " << y << ")";
        };
        // Rows across cell edges, from negative into positive
        // coordinates, then on to the next row.
        for (float y = -2.25f; y < 2.0f; y += 0.375f)
            for (float x = -1.5f; x < 1.5f; x += 0.1875f)
                check(x, y);
        // Down one column: x keeps its cell in every octave while y
        // crosses cell edges, so only yi tells the cells apart.
        for (float y = -3.0f; y < 3.0f; y += 0.125f)
            check(0.3f, y);
        // Jump far away, then back into an earlier cell.
        check(0.3f, 0.3f);
        check(57.7f, -33.1f);
        check(0.3f, 0.3f);
        check(0.35f, 0.31f);
    }
}

TEST(Procedural, GeneratorsProduceRequestedSizes)
{
    EXPECT_EQ(makeSatellite(64, 1).width(), 64u);
    EXPECT_EQ(makeBricks(32, 16, 1).width(), 32u);
    EXPECT_EQ(makeBricks(32, 16, 1).height(), 16u);
    EXPECT_EQ(makeWood(64, 32, 1).height(), 32u);
    EXPECT_EQ(makeMarble(64, 1).width(), 64u);
}

TEST(Procedural, GeneratorsAreDeterministic)
{
    Image a = makeSatellite(32, 9);
    Image b = makeSatellite(32, 9);
    for (unsigned y = 0; y < 32; ++y)
        for (unsigned x = 0; x < 32; ++x)
            ASSERT_EQ(a.at(x, y), b.at(x, y));
}
