#include "nms/network_model.h"

#include <algorithm>
#include <unordered_map>

namespace idba {

namespace {

Status AddAttrs(SchemaCatalog* catalog, ClassId cls,
                std::initializer_list<std::pair<const char*, Value>> attrs) {
  for (const auto& [name, def] : attrs) {
    ValueType t = def.type();
    IDBA_RETURN_NOT_OK(catalog->AddAttribute(cls, name, t, def));
  }
  return Status::OK();
}

}  // namespace

Result<NmsSchema> RegisterNmsSchema(SchemaCatalog* catalog) {
  NmsSchema s;

  // --- NetworkNode: a managed network element --------------------------
  IDBA_ASSIGN_OR_RETURN(s.network_node, catalog->DefineClass("NetworkNode"));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.network_node, {
      {"Name", Value(std::string())},
      {"Address", Value(std::string())},
      {"Status", Value(int64_t(1))},          // 1 = up
      {"CpuLoad", Value(0.0)},
      {"MemUsage", Value(0.0)},
      {"UptimeSeconds", Value(int64_t(0))},
      {"Vendor", Value(std::string())},
      {"Model", Value(std::string())},
      {"OsVersion", Value(std::string())},
      {"Location", Value(std::string())},
      {"Contact", Value(std::string())},
      {"SnmpCommunity", Value(std::string())},
      {"ManagementIp", Value(std::string())},
      {"Description", Value(std::string())},
      {"LastPolled", Value(int64_t(0))},
  }));

  // --- Link: wide, as real NMS link records are (paper §2.2) -----------
  IDBA_ASSIGN_OR_RETURN(s.link, catalog->DefineClass("Link"));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.link, {
      {"Name", Value(std::string())},
      {"From", Value(kNullOid)},
      {"To", Value(kNullOid)},
      {"Utilization", Value(0.0)},            // what the GUI codes by
      {"CapacityMbps", Value(10.0)},
      {"Status", Value(int64_t(1))},
      {"AdminState", Value(int64_t(1))},
      {"OperState", Value(int64_t(1))},
      {"ErrorRate", Value(0.0)},
      {"PacketsIn", Value(int64_t(0))},
      {"PacketsOut", Value(int64_t(0))},
      {"BytesIn", Value(int64_t(0))},
      {"BytesOut", Value(int64_t(0))},
      {"Discards", Value(int64_t(0))},
      {"Mtu", Value(int64_t(1500))},
      {"DelayMs", Value(0.0)},
      {"JitterMs", Value(0.0)},
      {"CostMetric", Value(int64_t(10))},
      {"Vendor", Value(std::string())},
      {"Model", Value(std::string())},
      {"SerialNumber", Value(std::string())},
      {"CircuitId", Value(std::string())},
      {"InstallDate", Value(std::string())},
      {"MaintenanceWindow", Value(std::string())},
      {"Contact", Value(std::string())},
      {"Notes", Value(std::string())},
      {"LastFlap", Value(int64_t(0))},
      {"LastPolled", Value(int64_t(0))},
  }));

  // --- Hardware containment hierarchy ----------------------------------
  IDBA_ASSIGN_OR_RETURN(s.hardware_component,
                        catalog->DefineClass("HardwareComponent"));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.hardware_component, {
      {"Name", Value(std::string())},
      {"Parent", Value(kNullOid)},
      {"Children", Value(std::vector<Oid>{})},
      {"Capacity", Value(1.0)},
      {"Status", Value(int64_t(1))},
      {"Utilization", Value(0.0)},
      {"Vendor", Value(std::string())},
      {"Model", Value(std::string())},
      {"SerialNumber", Value(std::string())},
      {"AssetTag", Value(std::string())},
      {"InstallDate", Value(std::string())},
      {"Notes", Value(std::string())},
      {"Manufacturer", Value(std::string())},
      {"FirmwareVersion", Value(std::string())},
      {"HardwareRevision", Value(std::string())},
      {"MacAddress", Value(std::string())},
      {"PowerDrawWatts", Value(0.0)},
      {"TemperatureC", Value(25.0)},
      {"WarrantyExpiry", Value(std::string())},
      {"SupportContract", Value(std::string())},
      {"LastServiced", Value(std::string())},
      {"SlotPosition", Value(int64_t(0))},
      {"WeightKg", Value(0.0)},
      {"FieldNotices", Value(std::string())},
  }));
  IDBA_ASSIGN_OR_RETURN(
      s.site, catalog->DefineClass("Site", s.hardware_component));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.site, {{"Region", Value(std::string())}}));
  IDBA_ASSIGN_OR_RETURN(
      s.building, catalog->DefineClass("Building", s.hardware_component));
  IDBA_RETURN_NOT_OK(
      AddAttrs(catalog, s.building, {{"StreetAddress", Value(std::string())}}));
  IDBA_ASSIGN_OR_RETURN(s.rack,
                        catalog->DefineClass("Rack", s.hardware_component));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.rack, {{"Slots", Value(int64_t(42))}}));
  IDBA_ASSIGN_OR_RETURN(s.device,
                        catalog->DefineClass("Device", s.hardware_component));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.device, {
      {"IpAddress", Value(std::string())},
      {"CpuLoad", Value(0.0)},
  }));
  IDBA_ASSIGN_OR_RETURN(s.card,
                        catalog->DefineClass("Card", s.hardware_component));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.card, {{"PortCount", Value(int64_t(0))}}));
  IDBA_ASSIGN_OR_RETURN(s.port,
                        catalog->DefineClass("Port", s.hardware_component));
  IDBA_RETURN_NOT_OK(AddAttrs(catalog, s.port, {{"SpeedMbps", Value(10.0)}}));

  return s;
}

DatabaseObject NewObject(const SchemaCatalog& catalog, ClassId cls, Oid oid) {
  auto attrs = catalog.AllAttributes(cls);
  DatabaseObject obj(oid, cls, attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) obj.Set(i, attrs[i]->default_value);
  return obj;
}

namespace {

/// Bulk loader context: runs inserts through transactions on the server.
class Loader {
 public:
  explicit Loader(DatabaseServer* server) : server_(server) {}

  Status Flush() {
    if (txn_ == 0) return Status::OK();
    IDBA_RETURN_NOT_OK(server_->Commit(/*client=*/0, txn_, nullptr).status());
    txn_ = 0;
    pending_ = 0;
    return Status::OK();
  }

  Status Insert(DatabaseObject obj) {
    if (txn_ == 0) txn_ = server_->Begin(/*client=*/0);
    IDBA_RETURN_NOT_OK(server_->Insert(0, txn_, std::move(obj), nullptr));
    if (++pending_ >= 128) return Flush();
    return Status::OK();
  }

 private:
  DatabaseServer* server_;
  TxnId txn_ = 0;
  int pending_ = 0;
};

std::string MakeName(const char* prefix, int i) {
  return std::string(prefix) + "-" + std::to_string(i);
}

const char* kVendors[] = {"Cisco", "Wellfleet", "Bay", "3Com", "DEC", "IBM"};
const char* kRegions[] = {"East", "West", "Central", "North", "South"};

}  // namespace

Result<NmsDatabase> PopulateNms(DatabaseServer* server, const NmsConfig& config) {
  NmsDatabase db;
  db.config = config;
  SchemaCatalog& catalog = server->schema();
  if (const ClassDef* existing = catalog.FindByName("Link"); existing == nullptr) {
    IDBA_ASSIGN_OR_RETURN(db.schema, RegisterNmsSchema(&catalog));
  } else {
    // Schema already present (repeated population): resolve ids by name.
    NmsSchema s;
    s.network_node = catalog.FindByName("NetworkNode")->id();
    s.link = catalog.FindByName("Link")->id();
    s.hardware_component = catalog.FindByName("HardwareComponent")->id();
    s.site = catalog.FindByName("Site")->id();
    s.building = catalog.FindByName("Building")->id();
    s.rack = catalog.FindByName("Rack")->id();
    s.device = catalog.FindByName("Device")->id();
    s.card = catalog.FindByName("Card")->id();
    s.port = catalog.FindByName("Port")->id();
    db.schema = s;
  }
  const NmsSchema& s = db.schema;
  Rng rng(config.seed);
  Loader loader(server);

  // --- Topology: nodes --------------------------------------------------
  for (int i = 0; i < config.num_nodes; ++i) {
    Oid oid = server->AllocateOid();
    DatabaseObject node = NewObject(catalog, s.network_node, oid);
    IDBA_RETURN_NOT_OK(node.SetByName(catalog, "Name", MakeName("node", i)));
    IDBA_RETURN_NOT_OK(node.SetByName(catalog, "Address",
                                      "10." + std::to_string(i / 250) + ".0." +
                                          std::to_string(i % 250 + 1)));
    IDBA_RETURN_NOT_OK(node.SetByName(
        catalog, "Vendor", std::string(kVendors[rng.NextBelow(6)])));
    IDBA_RETURN_NOT_OK(node.SetByName(catalog, "Model",
                                      MakeName("model", (int)rng.NextBelow(20))));
    IDBA_RETURN_NOT_OK(node.SetByName(
        catalog, "Description",
        "Managed element " + std::to_string(i) + " of the campus backbone"));
    IDBA_RETURN_NOT_OK(loader.Insert(std::move(node)));
    db.node_oids.push_back(oid);
  }

  // --- Topology: links (ring for connectivity + random chords) ---------
  auto add_link = [&](int a, int b, int idx) -> Status {
    Oid oid = server->AllocateOid();
    DatabaseObject link = NewObject(catalog, s.link, oid);
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "Name", MakeName("link", idx)));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "From", db.node_oids[a]));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "To", db.node_oids[b]));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "Utilization", rng.NextDouble()));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "CapacityMbps",
                                      rng.NextBool(0.3) ? 100.0 : 10.0));
    IDBA_RETURN_NOT_OK(link.SetByName(
        catalog, "Vendor", std::string(kVendors[rng.NextBelow(6)])));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "CircuitId",
                                      "CKT-" + std::to_string(100000 + idx)));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "SerialNumber",
                                      "SN" + std::to_string(rng.NextU64() % 1000000)));
    IDBA_RETURN_NOT_OK(link.SetByName(catalog, "InstallDate", "1995-06-15"));
    IDBA_RETURN_NOT_OK(link.SetByName(
        catalog, "Notes",
        "Leased line between node " + std::to_string(a) + " and node " +
            std::to_string(b) + "; contact NOC before maintenance"));
    IDBA_RETURN_NOT_OK(loader.Insert(std::move(link)));
    db.link_oids.push_back(oid);
    return Status::OK();
  };
  int link_idx = 0;
  for (int i = 0; i < config.num_nodes; ++i) {
    IDBA_RETURN_NOT_OK(add_link(i, (i + 1) % config.num_nodes, link_idx++));
  }
  int extra = std::max(0, static_cast<int>(config.num_nodes * config.avg_degree / 2) -
                              config.num_nodes);
  for (int e = 0; e < extra; ++e) {
    int a = static_cast<int>(rng.NextBelow(config.num_nodes));
    int b = static_cast<int>(rng.NextBelow(config.num_nodes));
    if (a == b) b = (b + 1) % config.num_nodes;
    IDBA_RETURN_NOT_OK(add_link(a, b, link_idx++));
  }

  // --- Hardware hierarchy ----------------------------------------------
  std::vector<std::pair<Oid, DatabaseObject>> components;
  std::unordered_map<Oid, size_t> component_index;  // oid -> components slot

  auto new_component = [&](ClassId cls, const std::string& name, Oid parent,
                           double capacity) {
    Oid oid = server->AllocateOid();
    DatabaseObject obj = NewObject(catalog, cls, oid);
    (void)obj.SetByName(catalog, "Name", name);
    (void)obj.SetByName(catalog, "Parent", parent);
    (void)obj.SetByName(catalog, "Capacity", capacity);
    (void)obj.SetByName(catalog, "Utilization", rng.NextDouble());
    (void)obj.SetByName(catalog, "Vendor", std::string(kVendors[rng.NextBelow(6)]));
    (void)obj.SetByName(catalog, "SerialNumber",
                        "HW" + std::to_string(rng.NextU64() % 1000000));
    (void)obj.SetByName(catalog, "FirmwareVersion",
                        "v" + std::to_string(rng.NextBelow(12)) + "." +
                            std::to_string(rng.NextBelow(10)));
    (void)obj.SetByName(catalog, "MacAddress",
                        "00:A0:" + std::to_string(10 + rng.NextBelow(89)) + ":" +
                            std::to_string(10 + rng.NextBelow(89)));
    (void)obj.SetByName(catalog, "PowerDrawWatts", 20.0 + rng.NextDouble() * 300);
    (void)obj.SetByName(catalog, "WarrantyExpiry", "1998-12-31");
    (void)obj.SetByName(catalog, "SupportContract",
                        "CON-" + std::to_string(100000 + rng.NextBelow(899999)));
    component_index[oid] = components.size();
    components.emplace_back(oid, std::move(obj));
    db.all_hardware_oids.push_back(oid);
    return oid;
  };
  auto component = [&](Oid oid) -> DatabaseObject& {
    return components[component_index.at(oid)].second;
  };
  auto attach_child = [&](Oid parent, Oid child) {
    DatabaseObject& obj = component(parent);
    auto cur = obj.GetByName(catalog, "Children");
    std::vector<Oid> kids = cur.ok() && cur.value().type() == ValueType::kOidList
                                ? cur.value().AsOidList()
                                : std::vector<Oid>{};
    kids.push_back(child);
    (void)obj.SetByName(catalog, "Children", std::move(kids));
  };

  db.hardware_root =
      new_component(s.hardware_component, "network", kNullOid, 1.0);
  int dev_counter = 0;
  for (int si = 0; si < config.sites; ++si) {
    Oid site = new_component(s.site, MakeName("site", si), db.hardware_root, 1.0);
    attach_child(db.hardware_root, site);
    db.site_oids.push_back(site);
    (void)component(site).SetByName(catalog, "Region",
                                    std::string(kRegions[si % 5]));
    for (int bi = 0; bi < config.buildings_per_site; ++bi) {
      Oid building = new_component(s.building, MakeName("bldg", bi), site, 1.0);
      attach_child(site, building);
      for (int ri = 0; ri < config.racks_per_building; ++ri) {
        Oid rack = new_component(s.rack, MakeName("rack", ri), building, 1.0);
        attach_child(building, rack);
        for (int di = 0; di < config.devices_per_rack; ++di) {
          double cap = 1.0 + rng.NextBelow(8);
          Oid device =
              new_component(s.device, MakeName("dev", dev_counter++), rack, cap);
          attach_child(rack, device);
          db.device_oids.push_back(device);
          for (int ci = 0; ci < config.cards_per_device; ++ci) {
            Oid card = new_component(s.card, MakeName("card", ci), device, 1.0);
            attach_child(device, card);
            for (int pi = 0; pi < config.ports_per_card; ++pi) {
              Oid port = new_component(s.port, MakeName("port", pi), card, 0.25);
              attach_child(card, port);
            }
          }
        }
      }
    }
  }
  for (auto& [oid, obj] : components) {
    IDBA_RETURN_NOT_OK(loader.Insert(std::move(obj)));
  }
  IDBA_RETURN_NOT_OK(loader.Flush());
  return db;
}

}  // namespace idba
