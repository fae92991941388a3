#include <gtest/gtest.h>

#include "minimpi/minimpi.h"

using namespace minimpi;

TEST(DimsCreate, BalancedFactorizations) {
    EXPECT_EQ(dims_create(12, 2), (std::vector<int>{4, 3}));
    EXPECT_EQ(dims_create(16, 2), (std::vector<int>{4, 4}));
    EXPECT_EQ(dims_create(24, 3), (std::vector<int>{4, 3, 2}));
    EXPECT_EQ(dims_create(7, 2), (std::vector<int>{7, 1}));
    EXPECT_EQ(dims_create(1, 3), (std::vector<int>{1, 1, 1}));
    EXPECT_EQ(dims_create(64, 3), (std::vector<int>{4, 4, 4}));
}

TEST(DimsCreate, ProductAlwaysMatches) {
    for (int n = 1; n <= 60; ++n) {
        for (int d = 1; d <= 4; ++d) {
            const auto dims = dims_create(n, d);
            int prod = 1;
            for (int x : dims) prod *= x;
            EXPECT_EQ(prod, n) << "n=" << n << " d=" << d;
        }
    }
    EXPECT_THROW(dims_create(0, 2), ArgumentError);
    EXPECT_THROW(dims_create(4, 0), ArgumentError);
}

TEST(Cart, CoordsRoundTrip) {
    Runtime rt(ClusterSpec::regular(2, 6), ModelParams::test());
    rt.run([](Comm& world) {
        CartComm cart(world, {3, 4});
        EXPECT_EQ(cart.coord(0), world.rank() / 4);
        EXPECT_EQ(cart.coord(1), world.rank() % 4);
        for (int r = 0; r < world.size(); ++r) {
            EXPECT_EQ(cart.rank_of(cart.coords_of(r)), r);
        }
    });
}

TEST(Cart, ShiftNonPeriodicHitsProcNull) {
    Runtime rt(ClusterSpec::regular(1, 6), ModelParams::test());
    rt.run([](Comm& world) {
        CartComm cart(world, {2, 3});
        const auto [up, down] = cart.shift(0, 1);
        if (cart.coord(0) == 0) {
            EXPECT_EQ(up, kProcNull);
            EXPECT_EQ(down, world.rank() + 3);
        } else {
            EXPECT_EQ(up, world.rank() - 3);
            EXPECT_EQ(down, kProcNull);
        }
    });
}

TEST(Cart, ShiftPeriodicWraps) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    rt.run([](Comm& world) {
        CartComm cart(world, {4}, {true});
        const auto [left, right] = cart.shift(0, 1);
        EXPECT_EQ(left, (world.rank() + 3) % 4);
        EXPECT_EQ(right, (world.rank() + 1) % 4);
        // Large displacements wrap too.
        const auto [l5, r5] = cart.shift(0, 5);
        EXPECT_EQ(l5, (world.rank() + 3) % 4);
        EXPECT_EQ(r5, (world.rank() + 1) % 4);
    });
}

TEST(Cart, AxisCommsAreRowsAndColumns) {
    Runtime rt(ClusterSpec::regular(2, 6), ModelParams::test());
    rt.run([](Comm& world) {
        CartComm cart(world, {3, 4});
        const Comm& row = cart.axis_comm(1);  // dim 1 varies -> my row
        const Comm& col = cart.axis_comm(0);
        EXPECT_EQ(row.size(), 4);
        EXPECT_EQ(col.size(), 3);
        EXPECT_EQ(row.rank(), cart.coord(1));
        EXPECT_EQ(col.rank(), cart.coord(0));
        // Row members share my row coordinate.
        for (int i = 0; i < row.size(); ++i) {
            EXPECT_EQ(row.to_world(i) / 4, world.rank() / 4);
        }
        // The cached comm is reused.
        EXPECT_EQ(&cart.axis_comm(1), &row);
    });
}

TEST(Cart, ThreeDimensional) {
    Runtime rt(ClusterSpec::regular(2, 12), ModelParams::test());
    rt.run([](Comm& world) {
        CartComm cart(world, {2, 3, 4}, {false, true, false});
        const auto c = cart.coords();
        EXPECT_EQ(cart.rank_of(c), world.rank());
        // Periodic middle dimension.
        const auto [mlo, mhi] = cart.shift(1, 1);
        EXPECT_NE(mlo, kProcNull);
        EXPECT_NE(mhi, kProcNull);
        EXPECT_EQ(cart.axis_comm(2).size(), 4);
    });
}

TEST(Cart, HaloExchangeOverShift) {
    // A classic 1D halo exchange: post both receives, then send.
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::test());
    rt.run([](Comm& world) {
        CartComm cart(world, {6}, {true});
        const auto [left, right] = cart.shift(0, 1);
        const int mine = world.rank() * 7;
        int from_left = -1, from_right = -1;
        Request rl = irecv(world, &from_left, 1, Datatype::Int32, left, 0);
        Request rr = irecv(world, &from_right, 1, Datatype::Int32, right, 1);
        send(world, &mine, 1, Datatype::Int32, right, 0);
        send(world, &mine, 1, Datatype::Int32, left, 1);
        rl.wait();
        rr.wait();
        EXPECT_EQ(from_left, ((world.rank() + 5) % 6) * 7);
        EXPECT_EQ(from_right, ((world.rank() + 1) % 6) * 7);
    });
}

TEST(Cart, RejectsBadConfigurations) {
    Runtime rt(ClusterSpec::regular(1, 6), ModelParams::test());
    rt.run([](Comm& world) {
        EXPECT_THROW(CartComm(world, {4, 2}), ArgumentError);  // 8 != 6
        EXPECT_THROW(CartComm(world, {}), ArgumentError);
        EXPECT_THROW(CartComm(world, {6, 0}), ArgumentError);
        EXPECT_THROW(CartComm(world, {2, 3}, {true}), ArgumentError);
        CartComm ok(world, {2, 3});
        EXPECT_THROW(ok.shift(2), ArgumentError);
        EXPECT_THROW(ok.rank_of({1}), ArgumentError);
    });
}
