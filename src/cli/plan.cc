#include "cli/plan.h"

#include <memory>
#include <utility>

#include "common/string_util.h"
#include "hierarchy/vgh_parser.h"

namespace hprl::cli {

Result<Plan> BuildPlan(const LinkageSpec& spec, const RawCsv* raw_r,
                       const RawCsv* raw_s) {
  Plan plan;
  auto schema = std::make_shared<Schema>();

  for (const AttrSpec& attr : spec.attrs) {
    switch (attr.type) {
      case AttrType::kNumeric: {
        auto vgh = attr.vgh_file.empty()
                       ? MakeEquiWidthVgh(attr.lo, attr.leaf_width,
                                          attr.fanouts)
                       : LoadNumericVgh(attr.vgh_file);
        if (!vgh.ok()) return vgh.status();
        plan.hierarchies.push_back(
            std::make_shared<const Vgh>(std::move(vgh).value()));
        schema->AddNumeric(attr.name);
        break;
      }
      case AttrType::kCategorical: {
        auto vgh = LoadCategoricalVgh(attr.vgh_file);
        if (!vgh.ok()) return vgh.status();
        auto shared = std::make_shared<const Vgh>(std::move(vgh).value());
        schema->AddCategorical(attr.name, shared->MakeDomain());
        plan.hierarchies.push_back(shared);
        break;
      }
      case AttrType::kText:
        schema->AddText(attr.name);
        plan.hierarchies.push_back(nullptr);
        break;
    }
  }

  // Extra (non-QID) columns named by the spec: collect their categories from
  // both inputs so ids are consistent. Without raw inputs the extras are
  // skipped — the streaming path has no batch anonymizer to feed them to.
  auto add_extra = [&](const std::string& name) -> Status {
    if (name.empty() || schema->FindIndex(name) >= 0) return Status::OK();
    if (raw_r == nullptr || raw_s == nullptr) return Status::OK();
    auto domain = std::make_shared<CategoryDomain>();
    for (const RawCsv* raw : {raw_r, raw_s}) {
      int col = raw->FindColumn(name);
      if (col < 0) {
        return Status::NotFound("column missing from CSV: " + name);
      }
      // First-seen order; each distinct value is looked up once.
      std::vector<bool> seen(raw->rows.num_values());
      for (const auto& row : raw->rows) {
        const uint32_t id = row.id(col);
        if (!seen[id]) {
          seen[id] = true;
          domain->GetOrAdd(raw->rows.value(id));
        }
      }
    }
    schema->AddCategorical(name, domain);
    return Status::OK();
  };
  HPRL_RETURN_IF_ERROR(add_extra(spec.class_attr));
  HPRL_RETURN_IF_ERROR(add_extra(spec.sensitive_attr));
  plan.schema = schema;

  // Match rule over the QIDs.
  for (size_t i = 0; i < spec.attrs.size(); ++i) {
    AttrRule r;
    r.attr_index = static_cast<int>(i);
    r.type = spec.attrs[i].type;
    r.theta = spec.attrs[i].theta;
    r.name = spec.attrs[i].name;
    if (r.type == AttrType::kNumeric) {
      r.norm = plan.hierarchies[i]->RootRange();
    }
    if (plan.hierarchies[i] != nullptr) {
      DeclareDomain(*plan.hierarchies[i], &r);
    }
    plan.rule.attrs.push_back(std::move(r));
  }

  // Anonymizer configuration.
  plan.anon_cfg.k = spec.k;
  for (size_t i = 0; i < spec.attrs.size(); ++i) {
    plan.anon_cfg.qid_attrs.push_back(static_cast<int>(i));
    plan.anon_cfg.hierarchies.push_back(plan.hierarchies[i]);
  }
  if (!spec.class_attr.empty()) {
    plan.anon_cfg.class_attr = plan.schema->FindIndex(spec.class_attr);
  }
  if (!spec.sensitive_attr.empty()) {
    plan.anon_cfg.sensitive_attr = plan.schema->FindIndex(spec.sensitive_attr);
    plan.anon_cfg.l_diversity = spec.l_diversity;
  }
  return plan;
}

namespace {

// Types `field` for `attr`. A failure's message names the field and the
// attribute; the caller prefixes where the field came from.
Result<Value> TypeField(const std::string& field, const AttributeDef& attr) {
  switch (attr.type) {
    case AttrType::kNumeric: {
      auto v = ParseDouble(field);
      if (!v.ok()) {
        return Status::InvalidArgument(StrFormat(
            "bad numeric '%s' for %s", field.c_str(), attr.name.c_str()));
      }
      return Value::Numeric(*v);
    }
    case AttrType::kCategorical: {
      int32_t id = attr.domain->Find(field);
      if (id < 0) {
        return Status::NotFound(StrFormat("'%s' is not a leaf of %s's hierarchy",
                                          field.c_str(), attr.name.c_str()));
      }
      return Value::Category(id);
    }
    case AttrType::kText:
      return Value::Text(field);
  }
  return Status::Internal("unreachable attr type");
}

Status At(const std::string& where, const Status& error) {
  return Status(error.code(), where + ": " + error.message());
}

}  // namespace

Result<Value> TypedField(const std::string& field, const Plan& plan,
                         int attr_index, const std::string& where) {
  auto v = TypeField(field, plan.schema->attribute(attr_index));
  if (!v.ok()) return At(where, v.status());
  return v;
}

Result<Value> TypedCell(const std::string& field, const Plan& plan,
                        int attr_index, const char* which, size_t row) {
  auto v = TypeField(field, plan.schema->attribute(attr_index));
  if (!v.ok()) return At(StrFormat("%s row %zu", which, row), v.status());
  return v;
}

Result<Table> Typed(const RawCsv& raw, const Plan& plan,
                    const std::string& which) {
  const Schema& schema = *plan.schema;
  const int width = schema.num_attributes();
  std::vector<int> col(width);
  for (int i = 0; i < width; ++i) {
    col[i] = raw.FindColumn(schema.attribute(i).name);
    if (col[i] < 0) {
      return Status::NotFound(which + ": column missing from CSV: " +
                              schema.attribute(i).name);
    }
  }
  // Each distinct (column, value) pair is typed once: slot[i][id] indexes
  // the typed value of interned cell `id` in column i (-1: not yet typed).
  // Rows are walked in row-major order, so the first failure returned is
  // still the first failing cell.
  std::vector<std::vector<int32_t>> slot(
      width, std::vector<int32_t>(raw.rows.num_values(), -1));
  std::vector<Value> typed;
  Table table(plan.schema);
  table.Reserve(static_cast<int64_t>(raw.rows.size()));
  for (size_t r = 0; r < raw.rows.size(); ++r) {
    const RawCsv::Rows::Row row = raw.rows[r];
    Record rec(width);
    for (int i = 0; i < width; ++i) {
      const uint32_t id = row.id(col[i]);
      int32_t& s = slot[i][id];
      if (s < 0) {
        auto v = TypedCell(raw.rows.value(id), plan, i, which.c_str(), r + 1);
        if (!v.ok()) return v.status();
        s = static_cast<int32_t>(typed.size());
        typed.push_back(std::move(v).value());
      }
      rec[i] = typed[s];
    }
    table.AppendUnchecked(std::move(rec));
  }
  return table;
}

}  // namespace hprl::cli
