//! Property-based layout tests: for randomly shaped schemas, the forest
//! view never overlaps boxes, hit-testing round-trips, and both renderers
//! stay total and deterministic; a data page draws exactly the visible
//! window of its extent.

use isis::prelude::*;
use isis::views::data_view::MEMBER_ROWS;
use isis::views::{
    data_view, forest_view, network_view, render, DataViewInput, Element, Emphasis,
    ForestViewOptions, PageSpec, Point,
};
use proptest::prelude::*;

/// A compact schema description the strategy generates: per baseclass, the
/// number of attributes, subclasses, sub-subclasses and groupings.
#[derive(Debug, Clone)]
struct SchemaShape {
    bases: Vec<(u8, u8, u8, bool)>, // (attrs, subclasses, grandchildren, grouping?)
    name_len: u8,
}

fn shape_strategy() -> impl Strategy<Value = SchemaShape> {
    (
        proptest::collection::vec((0u8..4, 0u8..3, 0u8..2, any::<bool>()), 1..6),
        1u8..18,
    )
        .prop_map(|(bases, name_len)| SchemaShape { bases, name_len })
}

fn build(shape: &SchemaShape) -> Database {
    let mut db = Database::new("prop");
    let strings = db.predefined(BaseKind::Strings);
    let pad = "x".repeat(shape.name_len as usize);
    for (bi, (attrs, subs, grands, grouping)) in shape.bases.iter().enumerate() {
        let base = db.create_baseclass(&format!("base{bi}_{pad}")).unwrap();
        let mut first_attr = None;
        for a in 0..*attrs {
            let id = db
                .create_attribute(
                    base,
                    &format!("a{bi}_{a}_{pad}"),
                    strings,
                    if a % 2 == 0 {
                        Multiplicity::Single
                    } else {
                        Multiplicity::Multi
                    },
                )
                .unwrap();
            first_attr.get_or_insert(id);
        }
        if *grouping {
            if let Some(attr) = first_attr {
                db.create_grouping(base, &format!("g{bi}_{pad}"), attr)
                    .unwrap();
            }
        }
        for s in 0..*subs {
            let sub = db
                .create_subclass(base, &format!("s{bi}_{s}_{pad}"))
                .unwrap();
            for g in 0..*grands {
                db.create_subclass(sub, &format!("gs{bi}_{s}_{g}_{pad}"))
                    .unwrap();
            }
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn forest_layout_never_overlaps(shape in shape_strategy()) {
        let db = build(&shape);
        let view = forest_view(&db, &ForestViewOptions::default()).unwrap();
        for (i, (na, ra)) in view.positions.iter().enumerate() {
            for (nb, rb) in view.positions.iter().skip(i + 1) {
                prop_assert!(!ra.intersects(rb), "{na} overlaps {nb}");
            }
        }
        // Every drawn box hit-tests back to itself at its centre.
        for (node, rect) in &view.positions {
            prop_assert_eq!(view.pick(Point::new(rect.cx(), rect.cy())), Some(*node));
        }
    }

    #[test]
    fn renderers_are_total_and_deterministic(shape in shape_strategy()) {
        let db = build(&shape);
        let scene = forest_view(&db, &ForestViewOptions::default()).unwrap().scene;
        let a1 = render::ascii::render(&scene);
        let a2 = render::ascii::render(&scene);
        prop_assert_eq!(&a1, &a2);
        let v1 = render::svg::render(&scene);
        let v2 = render::svg::render(&scene);
        prop_assert_eq!(&v1, &v2);
        prop_assert!(v1.starts_with("<svg"));
        prop_assert!(v1.trim_end().ends_with("</svg>"));
        // ASCII rows are rectangular enough: no row exceeds the declared
        // bounds wildly (sanity against runaway layout).
        let max = a1.lines().map(|l| l.len()).max().unwrap_or(0);
        prop_assert!(max < 4000);
    }

    #[test]
    fn every_class_renders_in_network_and_data_views(shape in shape_strategy()) {
        let db = build(&shape);
        let classes: Vec<ClassId> = db
            .classes()
            .filter(|(_, c)| !c.is_predefined())
            .map(|(id, _)| id)
            .collect();
        for c in classes {
            let n = network_view(&db, c).unwrap();
            prop_assert!(!n.scene.elements.is_empty());
            let d = data_view(
                &db,
                &DataViewInput {
                    pages: vec![PageSpec::new(SchemaNode::Class(c))],
                    prompt: vec![],
                },
            )
            .unwrap();
            prop_assert!(!d.scene.elements.is_empty());
        }
    }

    /// Manual placement (the move command) keeps pick() consistent with
    /// the drawn rectangles.
    #[test]
    fn moved_boxes_still_hit_test(shape in shape_strategy(), dx in -20i32..20, dy in 0i32..10) {
        let db = build(&shape);
        let some_class = db
            .classes()
            .find(|(_, c)| !c.is_predefined())
            .map(|(id, _)| id);
        let Some(target) = some_class else { return Ok(()) };
        let view = forest_view(
            &db,
            &ForestViewOptions {
                offsets: vec![(SchemaNode::Class(target), (dx, dy))],
                ..Default::default()
            },
        )
        .unwrap();
        let rect = view
            .positions
            .iter()
            .find(|(n, _)| *n == SchemaNode::Class(target))
            .unwrap()
            .1;
        // A drag may stack the box under a later-drawn one; the pick must
        // then resolve to the *topmost* box containing the point — i.e.
        // some box whose rectangle really contains it.
        let p = Point::new(rect.cx(), rect.cy());
        let picked = view.pick(p);
        prop_assert!(picked.is_some());
        let picked_rect = view
            .positions
            .iter()
            .find(|(n, _)| Some(*n) == picked)
            .unwrap()
            .1;
        prop_assert!(picked_rect.contains(p));
    }

    /// A class page of `n` members scrolled to `scroll` shows exactly the
    /// window a reference cut from the whole extent predicts: its rows in
    /// extent order, bold iff selected, both elision markers, rows that
    /// hit-test back to their member, and a list as wide as the widest
    /// name shown.
    #[test]
    fn class_page_draws_the_visible_window_of_its_extent(
        n in 0usize..=200,
        scroll in 0usize..=250,
        picks in proptest::collection::vec(0usize..220, 0..24),
    ) {
        let mut db = Database::new("page");
        let base = db.create_baseclass("members").unwrap();
        let extent: Vec<EntityId> = (0..n)
            .map(|i| {
                db.insert_entity(base, &format!("m{i}{}", "w".repeat(i * 7 % 13)))
                    .unwrap()
            })
            .collect();
        let selected: Vec<EntityId> = picks
            .iter()
            .filter(|&&p| p < n)
            .map(|&p| extent[p])
            .collect();
        let mut page = PageSpec::new(SchemaNode::Class(base));
        page.selected = selected.clone();
        page.scroll = scroll;
        let view = data_view(&db, &DataViewInput { pages: vec![page], prompt: vec![] }).unwrap();

        let shown: Vec<EntityId> = extent.iter().skip(scroll).take(MEMBER_ROWS).copied().collect();
        let rows: Vec<EntityId> = view.member_rows.iter().map(|(e, _)| *e).collect();
        prop_assert_eq!(&rows, &shown);
        let width = shown
            .iter()
            .map(|e| db.entity_name(*e).unwrap().chars().count() as i32 + 4)
            .max()
            .unwrap_or(0)
            .max(12);
        for (e, rect) in &view.member_rows {
            let name = db.entity_name(*e).unwrap();
            let emphasis = if selected.contains(e) { Emphasis::Bold } else { Emphasis::Plain };
            let at = Point::new(rect.x + 1, rect.y);
            prop_assert!(
                view.scene.elements.iter().any(|el| matches!(
                    el,
                    Element::Text { at: p, text, emphasis: m } if *p == at && text == name && *m == emphasis
                )),
                "row {} is not drawn as {:?} at {:?}", name, emphasis, at
            );
            prop_assert_eq!(rect.w, width);
            prop_assert_eq!(view.pick_member(at), Some(*e));
            prop_assert_eq!(view.pick_member(Point::new(rect.x + rect.w - 1, rect.y)), Some(*e));
        }
        let below = n.saturating_sub(scroll + shown.len());
        let markers = |prefix: &str| -> Vec<String> {
            view.scene
                .texts()
                .filter(|(t, _)| t.starts_with(prefix))
                .map(|(t, _)| t.to_string())
                .collect()
        };
        let want_below: Vec<String> = (below > 0).then(|| format!("(v {below} more)")).into_iter().collect();
        let want_above: Vec<String> = (scroll > 0).then(|| format!("(^ {scroll} more)")).into_iter().collect();
        prop_assert_eq!(markers("(v "), want_below);
        prop_assert_eq!(markers("(^ "), want_above);
    }
}
