//! The data level (§3.2): select/reject, follow, (re)assign, create entity,
//! make subclass and scroll. The data-level verbs act on the top page of
//! the stack; select/reject and scroll also serve the constant-pick visit
//! on its own page (Diagram 1's loop arrow).

use isis_core::{AttrId, CoreError, Database, EntityId, OrderedSet, SchemaNode, ValueClass};
use isis_views::PageSpec;

use super::Session;
use crate::command::Command;
use crate::error::SessionError;
use crate::state::{Mode, RefreshPolicy, Selection};

/// A page's data selection, refused when it is empty: the one check of
/// the verbs that act on the selected entities.
fn nonempty(selected: &[EntityId]) -> Result<&[EntityId], SessionError> {
    if selected.is_empty() {
        return Err(SessionError::NothingSelected);
    }
    Ok(selected)
}

impl Session {
    /// The page on screen at the data level: the visit's own page while a
    /// constant is picked, else the top of the page stack. `None` outside
    /// the data level.
    pub fn page(&self) -> Option<&PageSpec> {
        match &self.mode {
            Mode::ConstantPick { page, .. } => Some(page),
            Mode::Data => self.pages.last(),
            _ => None,
        }
    }

    /// The page `verb` acts on: the top of the page stack at the data
    /// level or, for the verbs that serve a constant pick (`visit`), the
    /// visit's own page. Anywhere else the verb is refused.
    fn data_page(&mut self, verb: &str, visit: bool) -> Result<&mut PageSpec, SessionError> {
        match &mut self.mode {
            Mode::ConstantPick { page, .. } if visit => Ok(page),
            Mode::Data => self
                .pages
                .last_mut()
                .ok_or_else(|| SessionError::WrongMode("no page at the data level".into())),
            _ => Err(SessionError::WrongMode(format!(
                "{verb} is a data-level command"
            ))),
        }
    }

    /// The data-level verbs.
    pub(super) fn apply_data(&mut self, cmd: Command) -> Result<(), SessionError> {
        match cmd {
            Command::SelectEntity(e) => {
                // Validate the pick against the page's node, then toggle.
                let node = self.data_page("select/reject", true)?.node;
                let listed = match node {
                    SchemaNode::Class(c) => self.db.members(c)?.contains(e),
                    SchemaNode::Grouping(g) => {
                        let idx_class = self.db.grouping_index_class(g)?;
                        self.db.members(idx_class)?.contains(e)
                    }
                };
                if !listed {
                    let class = match node {
                        SchemaNode::Class(c) => c,
                        SchemaNode::Grouping(g) => self.db.grouping(g)?.parent,
                    };
                    return Err(CoreError::NotAMember { entity: e, class }.into());
                }
                let selected = &mut self.data_page("select/reject", true)?.selected;
                match selected.iter().position(|x| *x == e) {
                    Some(i) => {
                        selected.remove(i);
                    }
                    None => selected.push(e),
                }
            }
            Command::ConstantToggle(e) => return self.apply(Command::SelectEntity(e)),
            Command::Follow(attr) => {
                let page = self.data_page("follow", false)?;
                let (node, selected) = (page.node, page.selected.clone());
                let SchemaNode::Class(class) = node else {
                    return Err(SessionError::WrongMode(
                        "follow on a grouping page needs no attribute".into(),
                    ));
                };
                if !self.db.attr_visible_on(attr, class)? {
                    return Err(CoreError::AttrNotOnClass { attr, class }.into());
                }
                // Raw values (grouping-ranged attributes land on the
                // grouping page with the index sets highlighted).
                let mut targets = OrderedSet::new();
                for &e in nonempty(&selected)? {
                    targets.extend_from(&self.db.attr_value(e, attr)?.as_set());
                }
                let target = match self.db.attr(attr)?.value_class {
                    ValueClass::Class(c) => SchemaNode::Class(c),
                    ValueClass::Grouping(g) => SchemaNode::Grouping(g),
                };
                self.push_page(target, &targets, Some(attr));
            }
            Command::FollowGrouping => {
                let page = self.data_page("follow", false)?;
                let node = page.node;
                let selected: OrderedSet = page.selected.iter().copied().collect();
                let SchemaNode::Grouping(g) = node else {
                    return Err(SessionError::WrongMode(
                        "follow on a class page needs an attribute".into(),
                    ));
                };
                nonempty(selected.as_slice())?;
                // "We merely follow the selected set(s) into the parent
                // class and highlight the members of the set(s)." Set by
                // set in selection order, each in parent-extent order.
                let mut members = OrderedSet::new();
                for set in self.db.grouping_sets_named(g, &selected)? {
                    members.extend_from(&set);
                }
                let parent = self.db.grouping(g)?.parent;
                self.push_page(SchemaNode::Class(parent), &members, None);
            }
            Command::ReassignAttrValue { attr, value } => self.reassign(
                |db, e| db.assign_single(e, attr, value),
                |db, n| {
                    let (attr, value) = (&db.attr(attr)?.name, db.entity_name(value)?);
                    Ok(format!("assigned {attr} = {value} for {n} entities"))
                },
            )?,
            Command::ReassignAttrValues { attr, values } => self.reassign(
                |db, e| db.assign_multi(e, attr, values.iter().copied()),
                |_, _| Ok(format!("assigned a set of {} values", values.len())),
            )?,
            Command::CreateEntity(name) => {
                let node = self.data_page("create entity", false)?.node;
                let class = node.as_class().ok_or_else(|| {
                    SessionError::BadSelection("entities are created in classes".into())
                })?;
                let base = self.db.class(class)?.base;
                self.snapshot();
                let e = self.db.insert_entity(base, &name)?;
                if base != class {
                    self.db.add_to_class(e, class)?;
                }
                self.say(format!("created entity {name}"));
                self.refresh_at(RefreshPolicy::Immediate)?;
            }
            Command::MakeSubclass(name) => {
                let page = self.data_page("make subclass", false)?;
                let (node, selected) = (page.node, page.selected.clone());
                let class = node.as_class().ok_or_else(|| {
                    SessionError::BadSelection("make subclass needs a class page".into())
                })?;
                let selected = nonempty(&selected)?;
                self.snapshot();
                // Temporary visit to the forest: the new class
                // "automatically becomes the child of the class on the
                // current page"; the hand points at it on return.
                let sub = self.db.create_subclass(class, &name)?;
                for &e in selected {
                    self.db.add_to_class(e, sub)?;
                }
                self.selection = Some(Selection::Class(sub));
                let n = selected.len();
                self.say(format!("made subclass {name} with {n} members"));
            }
            Command::Scroll(delta) => {
                // The list saturates at its first and its last row.
                let node = self.data_page("scroll", true)?.node;
                let rows = match node {
                    SchemaNode::Class(c) => self.db.members(c)?.len(),
                    SchemaNode::Grouping(g) => self.db.grouping_sizes(g)?.len(),
                };
                let page = self.data_page("scroll", true)?;
                page.scroll = page
                    .scroll
                    .saturating_add_signed(delta as isize)
                    .min(rows.saturating_sub(1));
            }
            other => unreachable!("{other:?} is not a data-level command"),
        }
        Ok(())
    }

    /// Stacks the page a follow lands on with the reached entities
    /// selected. The new page becomes the schema selection too: it is the
    /// examined object now.
    fn push_page(&mut self, node: SchemaNode, selected: &OrderedSet, from: Option<AttrId>) {
        let mut page = PageSpec::new(node);
        page.selected = selected.as_slice().to_vec();
        page.followed_from = from;
        self.pages.push(page);
        self.selection = Some(node.into());
    }

    /// *(re)assign att. value* in both forms: one undo point, `assign` for
    /// every selected entity of the top page at once (Figure 5), the
    /// message `said` makes of their count, then the refresh policy.
    fn reassign<T>(
        &mut self,
        assign: impl Fn(&mut Database, EntityId) -> isis_core::Result<T>,
        said: impl FnOnce(&Database, usize) -> Result<String, SessionError>,
    ) -> Result<(), SessionError> {
        let selected = nonempty(&self.data_page("(re)assign", false)?.selected)?.to_vec();
        self.snapshot();
        for &e in &selected {
            assign(&mut self.db, e)?;
        }
        let msg = said(&self.db, selected.len())?;
        self.say(msg);
        self.refresh_at(RefreshPolicy::Immediate)
    }
}
