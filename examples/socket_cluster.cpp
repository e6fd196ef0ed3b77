// Two-process KerA over real TCP: one process hosts the cluster (the
// coordinator plus N broker+backup nodes) on a SocketNetwork with fixed
// loopback ports; a second process routes to it with SetPeer and runs a
// produce/consume round trip — no shared memory, every RPC on the wire.
//
//   terminal 1:  ./example_socket_cluster --server 7400
//   terminal 2:  ./example_socket_cluster --client 7400
//
// Without arguments the example forks the server itself and runs the
// client against it.
//
// Port layout (base = 7400 by default):
//   base          coordinator
//   base + node   broker on node 1..N
//   base + 100 + node  backup service on node 1..N
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "backup/backup.h"
#include "broker/broker.h"
#include "client/consumer.h"
#include "client/producer.h"
#include "coordinator/coordinator.h"
#include "rpc/messages.h"
#include "rpc/socket_transport.h"

using namespace kera;

namespace {

constexpr uint32_t kNodes = 2;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int RunServer(uint16_t base_port) {
  rpc::SocketNetwork net;
  Coordinator coordinator(net);

  std::vector<NodeId> backup_services;
  for (NodeId node = 1; node <= kNodes; ++node) {
    backup_services.push_back(BackupServiceId(node));
  }

  std::vector<std::unique_ptr<Broker>> brokers;
  std::vector<std::unique_ptr<Backup>> backups;
  for (NodeId node = 1; node <= kNodes; ++node) {
    BrokerConfig bc;
    bc.node = node;
    bc.memory_bytes = 64u << 20;
    bc.segment_size = 1u << 20;
    bc.virtual_segment_capacity = 1u << 20;
    bc.backup_nodes = backup_services;
    brokers.push_back(std::make_unique<Broker>(bc, net));
    BackupConfig bkc;
    bkc.node = node;
    backups.push_back(std::make_unique<Backup>(bkc));
  }

  auto listen = [&](NodeId service, rpc::RpcHandler* handler,
                    uint16_t port) {
    auto bound = net.Register(service, handler, port);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind %u failed: %s\n", unsigned(port),
                   bound.status().ToString().c_str());
      std::exit(1);
    }
    std::printf("service %u listening on 127.0.0.1:%u\n", unsigned(service),
                unsigned(*bound));
  };
  listen(kCoordinatorNode, &coordinator, base_port);
  for (NodeId node = 1; node <= kNodes; ++node) {
    listen(node, brokers[node - 1].get(), uint16_t(base_port + node));
    listen(BackupServiceId(node), backups[node - 1].get(),
           uint16_t(base_port + 100 + node));
    coordinator.RegisterNode(node, brokers[node - 1].get(),
                             backups[node - 1].get());
  }
  std::printf("cluster up; ctrl-c to stop\n");
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  net.Shutdown();
  std::printf("server stopped\n");
  return 0;
}

int RunClient(uint16_t base_port) {
  rpc::SocketNetwork net;
  net.SetPeer(kCoordinatorNode, "127.0.0.1", base_port);
  for (NodeId node = 1; node <= kNodes; ++node) {
    net.SetPeer(node, "127.0.0.1", uint16_t(base_port + node));
    net.SetPeer(BackupServiceId(node), "127.0.0.1",
                uint16_t(base_port + 100 + node));
  }

  // Create the stream over the wire (retry while the server comes up).
  rpc::CreateStreamRequest create;
  create.name = "wired";
  create.options.num_streamlets = 2;
  create.options.replication_factor = 2;
  rpc::Writer body;
  create.Encode(body);
  auto frame = rpc::Frame(rpc::Opcode::kCreateStream, body);
  Result<std::vector<std::byte>> raw =
      Status(StatusCode::kUnavailable, "not attempted");
  for (int attempt = 0; attempt < 50; ++attempt) {
    raw = net.Call(kCoordinatorNode, frame);
    if (raw.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!raw.ok()) {
    std::fprintf(stderr, "create stream: %s\n",
                 raw.status().ToString().c_str());
    return 1;
  }
  rpc::Reader r(*raw);
  auto created = rpc::CreateStreamResponse::Decode(r);
  if (!created.ok() || created->status != StatusCode::kOk) {
    std::fprintf(stderr, "create stream rejected\n");
    return 1;
  }
  std::printf("created stream 'wired' (id %llu) over TCP\n",
              (unsigned long long)created->info.stream);

  ProducerConfig pc;
  pc.producer_id = 1;
  pc.stream = "wired";
  pc.chunk_size = 1024;
  Producer producer(pc, net);
  if (!producer.Connect().ok()) {
    std::fprintf(stderr, "producer connect failed\n");
    return 1;
  }
  constexpr int kRecords = 5000;
  for (int i = 0; i < kRecords; ++i) {
    std::string value = "wire-" + std::to_string(i);
    auto s = producer.Send(
        {reinterpret_cast<const std::byte*>(value.data()), value.size()});
    if (!s.ok()) {
      std::fprintf(stderr, "send: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!producer.Close().ok()) {
    std::fprintf(stderr, "producer close failed\n");
    return 1;
  }
  auto pstats = producer.GetStats();
  std::printf("produced %llu records in %llu requests\n",
              (unsigned long long)pstats.records_sent,
              (unsigned long long)pstats.requests_sent);

  ConsumerConfig cc;
  cc.stream = "wired";
  Consumer consumer(cc, net);
  if (!consumer.Connect().ok()) {
    std::fprintf(stderr, "consumer connect failed\n");
    return 1;
  }
  size_t received = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received < kRecords &&
         std::chrono::steady_clock::now() < deadline) {
    received += consumer.PollBlocking(256).size();
  }
  consumer.Close();
  std::printf("consumed %zu/%d records over TCP\n", received, kRecords);

  auto stats = net.GetStats();
  std::printf("client transport: %llu request frames, %llu vectored sends, "
              "%llu connections, %llu bytes sent\n",
              (unsigned long long)stats.frames_sent,
              (unsigned long long)stats.sendmsg_calls,
              (unsigned long long)stats.connections_opened,
              (unsigned long long)stats.bytes_sent);
  net.Shutdown();
  return received == kRecords ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t base_port = 7400;
  if (argc >= 3) base_port = uint16_t(std::atoi(argv[2]));
  if (argc >= 2 && std::strcmp(argv[1], "--server") == 0) {
    return RunServer(base_port);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--client") == 0) {
    return RunClient(base_port);
  }

  // No role: fork the server and run the client against it.
  pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    std::exit(RunServer(base_port));
  }
  int rc = RunClient(base_port);
  kill(child, SIGTERM);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  return rc;
}
