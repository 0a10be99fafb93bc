#include "src/shard/driver.h"

#include <string>
#include <vector>

namespace cffs::shard {

namespace {

std::vector<sim::SimEnv*> ShardEnvs(ShardRouter* router) {
  std::vector<sim::SimEnv*> envs;
  for (uint32_t s = 0; s < router->shards(); ++s) {
    envs.push_back(router->env(s));
  }
  return envs;
}

mt::Namespace RouterNamespace(ShardRouter* router) {
  mt::Namespace ns;
  ns.make_dir = [router](uint32_t client,
                         uint32_t dir) -> Result<mt::ClientDir> {
    mt::ClientDir d;
    d.path = "/c" + std::to_string(client) + "/d" + std::to_string(dir);
    RETURN_IF_ERROR(router->MkdirAll(d.path));
    d.loop = router->OwnerOfDir(d.path);
    ASSIGN_OR_RETURN(d.ino, router->env(d.loop)->path().Resolve(d.path));
    return d;
  };
  ns.rename = [router](const std::string& from, const std::string& to) {
    return router->Rename(from, to);
  };
  ns.populated = [router] { return router->SyncAll(); };
  return ns;
}

}  // namespace

ShardDriver::ShardDriver(ShardRouter* router, mt::MtParams params)
    : router_(router),
      loop_(ShardEnvs(router), params, RouterNamespace(router)) {}

Status ShardDriver::Run() {
  const uint64_t renames_before = router_->stats().renames_cross;
  const Status s = loop_.Run();
  stats_.shards = router_->shards();
  stats_.mt = loop_.TakeStats();
  stats_.per_shard = loop_.TakeLoopStats();
  stats_.elapsed_ns = stats_.mt.elapsed_ns;
  stats_.renames_cross = router_->stats().renames_cross - renames_before;
  return s;
}

}  // namespace cffs::shard
