#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <thread>

#include "comm/cluster.hpp"
#include "comm/event_loop.hpp"
#include "comm/socket_transport.hpp"
#include "comm/wire_format.hpp"
#include "core/replica.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace selsync;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kBatches = 7;  // each probe reports the median batch

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps a computed value alive so the optimiser cannot drop the work.
volatile float g_sink = 0.0f;

/// Median over kBatches batches of the per-call microseconds of `calls`
/// back-to-back calls of `f`.
template <class F>
double median_us_per_call(size_t calls, F&& f) {
  std::vector<double> per_call;
  for (size_t b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < calls; ++i) f();
    per_call.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

void probe_tensor(const BenchJob& b, std::vector<Metric>& out) {
  Rng rng(11);
  const Tensor x = Tensor::randn({b.batch, b.width_in}, rng);
  const Tensor w = Tensor::randn({b.width_out, b.width_in}, rng);
  const Tensor g = Tensor::randn({b.batch, b.width_out}, rng);
  const double flops = 2.0 * static_cast<double>(b.batch * b.width_in *
                                                 b.width_out);
  const size_t calls = std::max<size_t>(1, static_cast<size_t>(2e7 / flops));
  auto gflops = [&](auto&& kernel) {
    const double us = median_us_per_call(calls, [&] {
      const Tensor c = kernel();
      g_sink = g_sink + c.data()[0];
    });
    return flops / (us * 1e3);
  };
  // The three kernels of one Linear layer: forward, weight and input grads.
  out.push_back({"tensor.matmul_nt.gflops",
                 gflops([&] { return ops::matmul_nt(x, w); }), "GFLOP/s"});
  out.push_back({"tensor.matmul_tn.gflops",
                 gflops([&] { return ops::matmul_tn(g, x); }), "GFLOP/s"});
  out.push_back({"tensor.matmul.gflops",
                 gflops([&] { return ops::matmul(g, w); }), "GFLOP/s"});
}

void probe_single_worker(const BenchJob& b, std::vector<Metric>& out) {
  const TrainJob& job = b.job;
  std::unique_ptr<Model> model = job.model_factory(job.seed);
  std::unique_ptr<Optimizer> opt = job.optimizer_factory();
  std::vector<size_t> indices(job.batch_size);
  std::iota(indices.begin(), indices.end(), size_t{0});
  const Batch batch = job.train_data->make_batch(indices);
  size_t it = 0;
  const double us = median_us_per_call(200, [&] {
    g_sink = g_sink + model->train_step(batch);
    opt->step(model->params(), it++, 0.0);
  });
  out.push_back({"nn.single_worker_step_us", us, "us"});
}

/// One collective round, priced on the DES engine: every rank runs `rounds`
/// rounds back to back over its own `payload`-float buffer, and rank 0
/// times rounds 2..rounds (a round ends only after every rank has done its
/// part, so that is whole-cluster work).
template <class Round>
double collective_us(size_t workers, size_t rounds, size_t payload,
                     Round&& round) {
  double elapsed = 0.0;
  run_cluster(EngineKind::kDes, workers, [&](WorkerContext& ctx) {
    std::vector<float> data(payload, 0.0f);
    Clock::time_point t0;
    for (size_t r = 0; r < rounds; ++r) {
      if (r == 1 && ctx.is_root()) t0 = Clock::now();
      round(ctx, data);
    }
    if (ctx.is_root()) elapsed = seconds_since(t0);
  });
  return elapsed * 1e6 / static_cast<double>(rounds - 1);
}

void probe_collectives(const BenchJob& b, size_t params,
                       std::vector<Metric>& out) {
  const size_t n = b.job.workers;
  // The shared allreduce does O(N^2 P) work a round; keep the probe near a
  // second whatever the shape.
  const double work = static_cast<double>(n) * static_cast<double>(n) *
                      static_cast<double>(params);
  const size_t sum_rounds =
      std::clamp<size_t>(static_cast<size_t>(1e9 / work), 3, 400);
  std::vector<double> sum_us, max_us, flags_us;
  for (size_t rep = 0; rep < 3; ++rep) {
    sum_us.push_back(collective_us(
        n, sum_rounds, params, [](WorkerContext& ctx, std::vector<float>& d) {
          ctx.collectives->allreduce_sum(ctx.rank, d);
          g_sink = g_sink + d[0];
        }));
    max_us.push_back(
        collective_us(n, 200, 0, [](WorkerContext& ctx, std::vector<float>&) {
          g_sink = g_sink + static_cast<float>(ctx.collectives->allreduce_max(
                                ctx.rank, static_cast<double>(ctx.rank)));
        }));
    flags_us.push_back(
        collective_us(n, 200, 0, [](WorkerContext& ctx, std::vector<float>&) {
          const std::vector<uint8_t> flags = ctx.collectives->allgather_byte(
              ctx.rank, static_cast<uint8_t>(ctx.rank & 1));
          g_sink = g_sink + static_cast<float>(flags.back());
        }));
  }
  out.push_back({"comm.collectives.allreduce_sum_us", median(sum_us), "us"});
  out.push_back({"comm.collectives.allreduce_max_us", median(max_us), "us"});
  out.push_back(
      {"comm.collectives.allgather_flags_us", median(flags_us), "us"});
}

void probe_event_loop(const BenchJob& b, std::vector<Metric>& out) {
  const size_t n = b.job.workers;
  const size_t steps = std::max<size_t>(64, 131072 / n);
  std::vector<double> switch_ns, spawn_ms;
  uint64_t switches = 0;
  for (size_t rep = 0; rep < 3; ++rep) {
    EventLoop loop(n);
    for (size_t r = 0; r < n; ++r)
      loop.spawn(r, [&loop, steps] {
        for (size_t s = 1; s <= steps; ++s)
          loop.yield_current(static_cast<double>(s));
      });
    const Clock::time_point t0 = Clock::now();
    loop.run();
    switches = loop.switches();
    switch_ns.push_back(seconds_since(t0) * 1e9 /
                        static_cast<double>(switches));
  }
  for (size_t rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    {
      EventLoop loop(n);
      for (size_t r = 0; r < n; ++r) loop.spawn(r, [] {});
      loop.run();
    }
    spawn_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.push_back({"comm.event_loop.switch_ns", median(switch_ns), "ns"});
  out.push_back({"comm.event_loop.switches", static_cast<double>(switches),
                 "count"});
  out.push_back({"comm.event_loop.spawn_ms", median(spawn_ms), "ms"});
}

void probe_wire(size_t params, std::vector<Metric>& out) {
  std::vector<float> values(params);
  for (size_t i = 0; i < params; ++i)
    values[i] = static_cast<float>(i) * 0.5f - 3.0f;
  const uint64_t payload_len = params * sizeof(float);
  std::vector<uint8_t> frame;
  const double encode_us = median_us_per_call(200, [&] {
    frame = wire::encode_header(7, payload_len);
    wire::put_f32s(frame, values);
  });
  const double decode_us = median_us_per_call(200, [&] {
    const wire::FrameHeader h = wire::decode_header(frame.data(), frame.size());
    wire::Reader in(frame.data() + wire::kHeaderBytes, h.payload_len);
    const std::vector<float> back = wire::get_f32s(in, params);
    in.expect_end();
    g_sink = g_sink + back.back();
  });
  out.push_back({"comm.wire.encode_us", encode_us, "us"});
  out.push_back({"comm.wire.decode_us", decode_us, "us"});

  // Echo P floats over one loopback connection; a zero-length frame ends
  // the echo thread.
  std::vector<uint8_t> payload;
  wire::put_f32s(payload, values);
  TcpListener listener(0);
  std::exception_ptr echo_error;
  std::thread echo([&listener, &echo_error] {
    try {
      TcpConn conn = listener.accept(10.0);
      for (;;) {
        uint16_t verb = 0;
        const std::vector<uint8_t> got = recv_frame(conn, &verb);
        send_frame(conn, verb, got);
        if (got.empty()) return;
      }
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  double rtt_us = 0.0;
  try {
    TcpConn conn = tcp_connect("127.0.0.1", listener.port(), 10.0);
    rtt_us = median_us_per_call(100, [&] {
      uint16_t verb = 0;
      send_frame(conn, 7, payload);
      const std::vector<uint8_t> back = recv_frame(conn, &verb);
      g_sink = g_sink + static_cast<float>(back.size());
    });
    uint16_t verb = 0;
    send_frame(conn, 7, {});
    recv_frame(conn, &verb);
  } catch (...) {
    // The connection is closed by now, so the echo thread ends too.
    echo.join();
    throw;
  }
  echo.join();
  if (echo_error) std::rethrow_exception(echo_error);
  out.push_back({"comm.wire.frame_rtt_us", rtt_us, "us"});
}

void probe_open_transport(const BenchJob& b, std::vector<Metric>& out) {
  std::vector<double> open_ms;
  for (size_t rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<TransportSession> session = open_transport(b.job);
    session->finish();
    open_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.push_back({"core.replica.open_ms", median(open_ms), "ms"});
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2.0;
}

std::vector<Metric> run_probes(const BenchJob& bench) {
  const size_t params = bench.job.model_factory(bench.job.seed)->param_count();
  std::vector<Metric> out;
  probe_tensor(bench, out);
  probe_single_worker(bench, out);
  probe_collectives(bench, params, out);
  probe_event_loop(bench, out);
  probe_wire(params, out);
  probe_open_transport(bench, out);
  return out;
}

}  // namespace perfbench
